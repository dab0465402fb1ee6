"""Retained memory of the protocol layers does not grow with run length.

Algorithm 1 only needs state for what is still in flight: a decided
consensus instance is only ever asked "decided?", an adelivered id only
has to answer "seen before?", and a payload is dead once adelivered.
This guard runs the same metrics-mode drive (``CountingTrace`` feeding
the default probes, as ``trace_mode="metrics"`` does) for ``T`` and
``4T`` and sums tracemalloc's retained bytes by the ``repro/<layer>/``
file that allocated them, with the system still alive:

* ``broadcast``, ``abcast`` and ``core`` grow at most 1.3× (about 4×
  while decided instances, delivered-id sets and adelivered payloads
  were all kept);
* the consensus layer retains at most half the bytes per decided
  instance it did then (``PARENT_CONSENSUS_BYTES``).

The 4-shard leg runs a metrics-mode sharded service (a bare
``CountingTrace`` per group, as the shard sweep builds it) fed through
the router, and holds the same two bounds plus one on the router's
completion log: the ``shard`` layer retains at most
``SHARD_BYTES_PER_OP`` per completed operation (about 110 while each
completion was a boxed ``(arrival, sojourn)`` tuple).

One linear term is the protocol's own and is released before the
snapshot, so the guard sees everything else: the sequencer's ordered
``log``, which its repair path and seal snapshots replay (a seal
frame's size sums the whole log).

The full-trace leg bounds what a run keeps per record rather than its
growth: it runs the same drive with a full ``Trace`` and with a
``CountingTrace``, at ``T`` and at a longer run, and holds the
difference of everything tracemalloc sees retained, divided by the
events recorded, to ``TRACE_BYTES_PER_EVENT``.  That is all a full
trace costs: its rows, the id sets and the messages it keeps alive.
While the trace kept one event object per record (about 61 bytes,
plus a boxed time for most and a list slot) it came to about 110; as
columns (26 bytes a row) it is about 55.

The shared-values leg runs the same drive with a full ``Trace`` too,
at ``T`` and ``4T``, and looks at what the recorded events point to:
the distinct id-set objects of the propose and decide events come to
at most ``VALUE_BYTES_PER_EVENT`` per such event (about 110 while each
process recorded its own copy of every value, about 50 now), and every
abroadcast message of the one workload source carries the same
``Payload`` object (there was one per message).

The checked legs add the streaming abcast checker to the probes (as a
``trace_mode="metrics"`` run with ``safety_checks`` does), with and
without p1 crashing early, and hold the ``checkers`` and ``metrics``
layers to the same 1.3× as ``FLAT``.  The latency probe's samples
columns are the measurement itself, one 8-byte float per delivery, so
they are held to ``SAMPLE_BYTES`` per sample instead and left out of
the ``metrics`` figure.  With p1 crashed no measured message is ever
delivered by the whole group: the probe and the checker retire a
message once every process still live delivered it (before, the probe
waited for all n and kept about 93 bytes per measured message).
"""

from __future__ import annotations

import gc
import inspect
import os
import sys
import tracemalloc

import pytest

import repro
from repro.checkers.abcast import AbcastChecker
from repro.core.config import SystemConfig
from repro.core.events import ABroadcastEvent, DecideEvent, ProposeEvent
from repro.failure.crash import CrashSchedule
from repro.harness.experiment import ExperimentSpec
from repro.metrics.probes import LatencyProbe, build_probes
from repro.net.setups import SETUP_1
from repro.shard import ShardSpec, build_sharded_system
from repro.sim.trace import CountingTrace, Trace
from repro.stack.builder import StackSpec
from repro.stack.layers import WORKLOADS

T = 0.5
RATE = 400.0
DRAIN = 0.5
FLAT = ("broadcast", "abcast", "core")
_REPRO = os.sep + "repro" + os.sep

STACKS = {
    "ct-indirect": StackSpec(n=3, abcast="indirect", consensus="ct-indirect",
                             params=SETUP_1, seed=0),
    "mr-indirect": StackSpec(n=3, abcast="indirect", consensus="mr-indirect",
                             params=SETUP_1, seed=0),
    "sequencer": StackSpec(n=3, abcast="sequencer", consensus="none",
                           params=SETUP_1, seed=0),
}
#: Four ct-indirect groups behind the router, ``RATE`` per shard.
SHARDED = ShardSpec(stack=STACKS["ct-indirect"], shards=4)

#: Consensus-layer bytes retained per decided instance by the same
#: drive at ``4T`` at commit e0ad3a1, when every decided instance stayed
#: in the service's table with its round buffers, round-entry list and
#: bound ``rcv``, next to a grow-only set of forwarded decisions.  Now
#: about 100 bytes: three round-log array slots per process.
PARENT_CONSENSUS_BYTES = {"ct-indirect": 1115, "mr-indirect": 973}
#: Router completion log: two ``array('d')`` slots per operation plus
#: the arrays' over-allocation.
SHARD_BYTES_PER_OP = 24
#: Bytes a full ``Trace`` retains beyond a ``CountingTrace`` per
#: recorded event: its 26-byte row plus the id sets and messages it
#: keeps alive (about 110 while it kept an event object per record).
TRACE_BYTES_PER_EVENT = 64
#: Bytes of distinct id-set objects per propose or decide event of a
#: full trace: the trace shares equal values, so an instance's events
#: point at one set (each process's own copy cost about 110).
VALUE_BYTES_PER_EVENT = 64
#: Latency-probe bytes per delivery sample: the float plus the
#: ``array('d')`` column's over-allocation.
SAMPLE_BYTES = 10


def _samples_at() -> tuple[str, int]:
    """``(file, line)`` where the latency probe appends a sample."""
    lines, start = inspect.getsourcelines(LatencyProbe.on_event)
    offset = next(i for i, line in enumerate(lines) if "self._samples[" in line)
    return LatencyProbe.on_event.__code__.co_filename, start + offset


def _decided(system) -> int:
    """Instances p1 of ``system`` decided (0 without consensus)."""
    if not system.consensuses:
        return 0
    service = system.consensuses[1]
    return service.decided_through + len(service.decided_above)


def _drive(
    spec: StackSpec | ShardSpec,
    duration: float,
    trace: type = CountingTrace,
    crashes: CrashSchedule | None = None,
    checked: bool = False,
):
    """Build ``spec`` with the default probes (and, ``checked``, the
    abcast checker) feeding ``trace`` (a ``CountingTrace`` is metrics
    mode), load it for ``duration`` and run the drain; returns
    ``(groups, completed operations, keep-alive)``."""
    if isinstance(spec, ShardSpec):
        service = build_sharded_system(
            spec, traces=[CountingTrace() for _ in range(spec.shards)]
        )
        for shard, group in enumerate(service.groups):
            WORKLOADS.get("poisson").factory(
                group, throughput=RATE, payload_size=100, duration=duration,
                sink=service.router.sink(shard),
            ).install()
        service.run(until=duration + DRAIN)
        completed = sum(len(log) for log in service.router.arrivals)
        return service.groups, completed, service
    experiment = ExperimentSpec(
        name="memory", stack=spec, throughput=RATE, payload=100,
        duration=duration, drain=DRAIN, trace_mode="metrics",
        safety_checks=False,
    )
    sinks = [
        probe.on_event for _, probe in build_probes(experiment)
        if probe.on_event is not None
    ]
    if checked:
        sinks.append(AbcastChecker(None, SystemConfig(n=spec.n)).on_event)
    system = repro.build_system(spec, crashes, trace=trace(sinks))
    WORKLOADS.get("symmetric").factory(
        system, throughput=RATE, payload_size=100, duration=duration,
        arrivals="poisson",
    ).install()
    system.run(until=duration + DRAIN)
    return [system], 0, system


def retained_by_layer(
    spec: StackSpec | ShardSpec, duration: float, **drive
) -> tuple[dict, int, int]:
    """Run ``spec`` (one group, or a sharded service) for ``duration``
    and return (bytes by layer, decided instances at p1 summed over the
    groups, operations the router completed), measured with the system
    alive.  The latency samples count as layer ``"samples"``, not
    ``"metrics"``, and ``"sample_count"`` is how many there are."""
    gc.collect()
    tracemalloc.start()
    try:
        groups, completed, alive = _drive(spec, duration, **drive)
        for system in groups:
            abcasts = system.abcasts.values()
            assert min(abcast.delivered_count() for abcast in abcasts) > 0
            for abcast in abcasts:
                log = getattr(abcast, "log", None)
                if log is not None:
                    log.clear()
        decided = sum(_decided(system) for system in groups)
        probes = [
            sink.__self__ for system in groups for sink in system.trace.sinks
            if isinstance(sink.__self__, LatencyProbe)
        ]
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    by_layer = {"sample_count": sum(
        len(column) for probe in probes for column in probe._samples.values()
    )}
    samples_at = _samples_at()
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        at = frame.filename.find(_REPRO)
        if at >= 0:
            layer = frame.filename[at + len(_REPRO):].split(os.sep)[0]
            if (frame.filename, frame.lineno) == samples_at:
                layer = "samples"
            by_layer[layer] = by_layer.get(layer, 0) + stat.size
    alive.close()
    return by_layer, decided, completed


def _retained(spec: StackSpec, duration: float, trace: type) -> tuple[int, int]:
    """(bytes retained with the system alive, events recorded) for a
    run of ``spec`` for ``duration`` recording into ``trace``."""
    gc.collect()
    tracemalloc.start()
    try:
        (system,), _, _ = _drive(spec, duration, trace=trace)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    events = len(system.trace)
    system.close()
    return held, events


def assert_trace_lean(spec: StackSpec, longer: int = 4) -> None:
    """The full-trace bound, on runs of ``spec`` for ``T`` and
    ``longer × T``."""
    for duration in (T, longer * T):
        full, events = _retained(spec, duration, Trace)
        counted, counted_events = _retained(spec, duration, CountingTrace)
        assert events == counted_events > 0
        per_event = (full - counted) / events
        assert per_event <= TRACE_BYTES_PER_EVENT, (duration, per_event)


def assert_flat(spec: StackSpec | ShardSpec, longer: int = 4) -> None:
    """The bounds above, on runs of ``spec`` for ``T`` and ``longer × T``."""
    short, short_decided, short_done = retained_by_layer(spec, T)
    long, long_decided, long_done = retained_by_layer(spec, longer * T)
    for layer in FLAT:
        assert long.get(layer, 0) <= 1.3 * short.get(layer, 0), (
            layer, short, long,
        )
    stack = spec.stack if isinstance(spec, ShardSpec) else spec
    if stack.consensus in PARENT_CONSENSUS_BYTES:
        # The long run really is longer.
        assert long_decided > 3 * short_decided > 0
        per_instance = long["consensus"] / long_decided
        assert 2 * per_instance <= PARENT_CONSENSUS_BYTES[stack.consensus], (
            per_instance
        )
    if isinstance(spec, ShardSpec):
        assert long_done > 3 * short_done > 0
        per_op = long["shard"] / long_done
        assert per_op <= SHARD_BYTES_PER_OP, per_op


@pytest.mark.parametrize("name", list(STACKS))
def test_retained_bytes_do_not_grow_with_run_length(name):
    assert_flat(STACKS[name])


def test_four_shard_service_retains_no_more_per_operation():
    assert_flat(SHARDED)


def test_full_trace_keeps_each_event_once():
    assert_trace_lean(STACKS["ct-indirect"], longer=4)


def assert_values_shared(spec: StackSpec, longer: int = 4) -> None:
    """The shared-values bounds on full-trace runs of ``spec`` for
    ``T`` and ``longer × T``."""
    for duration in (T, longer * T):
        (system,), _, _ = _drive(spec, duration, trace=Trace)
        events = system.trace.events
        values = [
            e.value for e in events if type(e) in (ProposeEvent, DecideEvent)
        ]
        distinct = {id(value): value for value in values}.values()
        per_event = sum(map(sys.getsizeof, distinct)) / len(values)
        assert per_event <= VALUE_BYTES_PER_EVENT, (duration, per_event)
        payloads = {
            id(e.message.payload) for e in events
            if type(e) is ABroadcastEvent
        }
        assert len(payloads) == 1, (duration, len(payloads))
        system.close()


@pytest.mark.parametrize("name", ["ct-indirect", "mr-indirect"])
def test_full_trace_holds_each_value_and_payload_once(name):
    assert_values_shared(STACKS[name])


def assert_checked_flat(
    spec: StackSpec, crash: bool = False, longer: int = 4
) -> None:
    """The checked-leg bounds on runs of ``spec`` for ``T`` and
    ``longer × T``, with p1 crashing at 50 ms if ``crash``."""
    crashes = CrashSchedule.single(1, 0.05) if crash else None
    short, _, _ = retained_by_layer(spec, T, crashes=crashes, checked=True)
    long, _, _ = retained_by_layer(
        spec, longer * T, crashes=crashes, checked=True
    )
    for layer in FLAT + ("checkers", "metrics"):
        assert long.get(layer, 0) <= 1.3 * short.get(layer, 0), (
            layer, short, long,
        )
    per_sample = long["samples"] / long["sample_count"]
    assert per_sample <= SAMPLE_BYTES, per_sample


@pytest.mark.parametrize("crash", [False, True], ids=["clean", "p1-crashed"])
def test_checked_metrics_run_retains_no_more_with_run_length(crash):
    assert_checked_flat(STACKS["ct-indirect"], crash=crash)
