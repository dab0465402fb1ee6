"""Metamorphic relations: exact oracles for loaded and faulty runs.

Golden traces say a run is *unchanged*; they cannot say a loaded or
faulty run is *right*, because no exact expected output exists for it.
A metamorphic relation replaces the missing oracle with a second run
whose trace must relate to the first in a known way (Chen et al.,
"Metamorphic Testing: A Review of Challenges and Opportunities", ACM
CSUR 2018).  Both relations here are exact, compared by
:func:`tests.helpers.trace_fingerprint`:

* **R2, inert faults.**  A loss rule that selects no frame, a loss
  rule whose only victim is a frame past the end of the run, a
  ``PartitionWindow`` that separates nobody and a ``DelayRule`` that
  selects no frame give the same trace as no fault, on every registry
  combination.  (``LossRule(probability=0)`` and a zero-extra
  ``DelayRule`` are refused as configuration errors, so "no fault" is
  spelled as a rule that never fires.)
* **R1, time scaling.**  Doubling every time constant (latency, per-byte
  costs, detector delays and periods, the crash instant, the run
  length) and halving the send rate doubles every event time exactly,
  in the same order: scaling by a power of two is exact in floating
  point, and nothing in the model may hide an absolute time.
"""

from __future__ import annotations

import pytest

from repro import CrashSchedule, StackSpec, SymmetricWorkload, build_system
from repro.harness.suite import registry_variants
from repro.net.faults import DelayRule, LossRule, PartitionWindow
from repro.net.models import NetworkParams
from repro.net.setups import SETUP_1
from tests.helpers import trace_fingerprint

N = 3
RATE = 300.0
DURATION = 0.2
HORIZON = 0.8

VARIANTS = dict(registry_variants(N, network="contention", params=SETUP_1,
                                  seed=3))

INERT_FAULTS = {
    "loss-no-match": LossRule(probability=1.0, kind_prefix="no-such-kind"),
    "loss-past-the-end": LossRule(nth=(10**9,)),
    "partition-nobody": PartitionWindow(start=0.01, end=0.05,
                                        groups=((1, 2, 3),)),
    "delay-no-match": DelayRule(extra=1e-3, kind_prefix="no-such-kind"),
}


def run(stack: StackSpec, crashes=CrashSchedule.none(), scale: float = 1.0):
    """Fingerprint of a symmetric Poisson run, all times scaled by ``scale``."""
    system = build_system(stack, crashes)
    SymmetricWorkload(
        system, throughput=RATE / scale, payload_size=64,
        duration=DURATION * scale, arrivals="poisson",
    ).install()
    system.run(until=HORIZON * scale, max_events=2_000_000)
    return system.trace


@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_r2_inert_faults_leave_the_trace_unchanged(label):
    stack = VARIANTS[label]
    expected = trace_fingerprint(run(stack))
    for name, rule in INERT_FAULTS.items():
        faulty = StackSpec(**{**stack.__dict__, "faults": (rule,)})
        assert trace_fingerprint(run(faulty)) == expected, name


def scaled(stack: StackSpec, k: float) -> StackSpec:
    """``stack`` with every time constant multiplied by ``k``."""
    p = stack.params
    return StackSpec(**{
        **stack.__dict__,
        "params": NetworkParams(
            send_overhead=p.send_overhead * k,
            recv_overhead=p.recv_overhead * k,
            cpu_per_byte=p.cpu_per_byte * k,
            wire_overhead=p.wire_overhead * k,
            wire_per_byte=p.wire_per_byte * k,
            rcv_lookup_cost=p.rcv_lookup_cost * k,
        ),
        "constant_latency": stack.constant_latency * k,
        "constant_per_byte": stack.constant_per_byte * k,
        "constant_jitter": stack.constant_jitter * k,
        "fd_detection_delay": stack.fd_detection_delay * k,
        "heartbeat_interval": stack.heartbeat_interval * k,
        "heartbeat_timeout": stack.heartbeat_timeout * k,
    })


def timeline(trace, k: float = 1.0) -> list:
    """The trace as ``(time × k, event type, process, message id,
    instance)`` rows."""
    rows = []
    for event in trace.events:
        message = getattr(event, "message", None)
        rows.append((
            event.time * k, type(event).__name__, event.process,
            None if message is None else message.mid,
            getattr(event, "instance", None),
        ))
    return rows


#: The four stacks the relation was first checked on: (label, fd,
#: coordinator crash at).
SCALING_CASES = {
    "ct-indirect-oracle": ("indirect/ct-indirect/flood", "oracle", None),
    "ct-indirect-heartbeat-crash": (
        "indirect/ct-indirect/flood", "heartbeat", 0.1),
    "mr-indirect-oracle": ("indirect/mr-indirect/flood", "oracle", None),
    "faulty-ids-ct-heartbeat-crash": ("faulty-ids/ct/flood", "heartbeat",
                                      0.1),
}


@pytest.mark.parametrize("network", ["contention", "constant"])
@pytest.mark.parametrize("case", sorted(SCALING_CASES))
def test_r1_doubling_every_time_constant_doubles_every_event_time(
    case, network
):
    label, fd, crash_at = SCALING_CASES[case]
    stack = StackSpec(**{**VARIANTS[label].__dict__, "fd": fd,
                         "network": network, "constant_per_byte": 1e-7})
    # p2 coordinates round 1 of every instance at n = 3.
    crashes = (CrashSchedule.none() if crash_at is None
               else CrashSchedule.single(2, crash_at))
    doubled_crashes = (CrashSchedule.none() if crash_at is None
                       else CrashSchedule.single(2, 2 * crash_at))
    base = run(stack, crashes)
    doubled = run(scaled(stack, 2.0), doubled_crashes, scale=2.0)
    assert len(base.events) > 100
    assert (crash_at is not None) == any(
        type(event).__name__ == "CrashEvent" for event in base.events
    )
    assert timeline(doubled) == timeline(base, 2.0)
    assert trace_fingerprint(doubled) != trace_fingerprint(base)
