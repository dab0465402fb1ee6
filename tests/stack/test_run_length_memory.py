"""Retained memory of the protocol layers does not grow with run length.

Algorithm 1 only needs state for what is still in flight: a decided
consensus instance is never consulted again, an adelivered id only has
to answer "seen before?", and a payload is dead once adelivered.  This
guard runs the same metrics-mode drive (``CountingTrace`` feeding the
default probes, as ``trace_mode="metrics"`` does) for ``T`` and ``4T``
and sums tracemalloc's retained bytes by the ``repro/<layer>/`` file
that allocated them, with the system still alive:

* ``broadcast``, ``abcast`` and ``core`` grow at most 1.3× (about 4×
  while decided instances, delivered-id sets and adelivered payloads
  were all kept);
* the consensus layer retains at most half the bytes per decided
  instance it did then (``PARENT_CONSENSUS_BYTES``).

Two linear terms are the protocol's own and are released before the
snapshot, so the guard sees everything else:

* ``ConsensusService.decided``, which tests and ``has_decided`` read:
  its values are the decided id sets allocated by
  ``AtomicBroadcast._batch`` and its keys the instance numbers counted
  up by ``AtomicBroadcast._apply_decisions``, so both are charged to
  ``abcast``;
* the sequencer's ordered ``log``, which its repair path and seal
  snapshots replay (a seal frame's size sums the whole log).
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

import repro
from repro.harness.experiment import ExperimentSpec
from repro.metrics.probes import build_probes
from repro.net.setups import SETUP_1
from repro.sim.trace import CountingTrace
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

#: Consensus-layer bytes retained per decided instance by the same
#: drive at ``4T`` at commit e0ad3a1, when every decided instance stayed
#: in the service's table with its round buffers, round-entry list and
#: bound ``rcv``, next to a grow-only set of forwarded decisions.  Now
#: about 100 bytes: three round-log array slots per process.
PARENT_CONSENSUS_BYTES = {"ct-indirect": 1115, "mr-indirect": 973}


def retained_by_layer(stack: StackSpec, duration: float) -> tuple[dict, int]:
    """Run ``stack`` for ``duration`` and return (bytes by layer, decided
    instances at p1), measured with the system alive."""
    spec = ExperimentSpec(
        name="memory", stack=stack, throughput=RATE, payload=100,
        duration=duration, drain=DRAIN, trace_mode="metrics",
        safety_checks=False,
    )
    gc.collect()
    tracemalloc.start()
    try:
        sinks = [
            probe.on_event for _, probe in build_probes(spec)
            if probe.on_event is not None
        ]
        system = repro.build_system(stack, trace=CountingTrace(sinks))
        WORKLOADS.get("symmetric").factory(
            system, throughput=RATE, payload_size=100, duration=duration,
            arrivals="poisson",
        ).install()
        system.engine.run(until=duration + DRAIN)
        assert min(a.delivered_count() for a in system.abcasts.values()) > 0
        decided = len(system.consensuses[1].decided) if system.consensuses else 0
        for service in system.consensuses.values():
            service.decided.clear()
        for abcast in system.abcasts.values():
            log = getattr(abcast, "log", None)
            if log is not None:
                log.clear()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    by_layer: dict[str, int] = {}
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        at = filename.find(_REPRO)
        if at >= 0:
            layer = filename[at + len(_REPRO):].split(os.sep)[0]
            by_layer[layer] = by_layer.get(layer, 0) + stat.size
    system.close()
    return by_layer, decided


@pytest.mark.parametrize("name", list(STACKS))
def test_retained_bytes_do_not_grow_with_run_length(name):
    short, short_decided = retained_by_layer(STACKS[name], T)
    long, long_decided = retained_by_layer(STACKS[name], 4 * T)
    for layer in FLAT:
        assert long.get(layer, 0) <= 1.3 * short.get(layer, 0), (
            layer, short, long,
        )
    if name in PARENT_CONSENSUS_BYTES:
        # The long run really is longer.
        assert long_decided > 3 * short_decided > 0
        per_instance = long["consensus"] / long_decided
        assert 2 * per_instance <= PARENT_CONSENSUS_BYTES[name], per_instance
