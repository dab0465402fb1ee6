"""Deterministic discrete-event simulation engine.

This package is the reproduction's substitute for the Neko framework
(Urbán, Défago, Schiper 2002) used by the paper: protocol code written
against the layered interfaces in :mod:`repro.stack` executes inside the
single-threaded, deterministic event loop implemented here.

Components:

* :class:`~repro.sim.engine.Engine` — the event queue and simulated clock.
* :class:`~repro.sim.rng.RngRegistry` — named, independently seeded random
  streams, so adding a new source of randomness never perturbs existing ones.
* :class:`~repro.sim.resources.FifoResource` — non-preemptive single-server
  queues used to model CPUs and the shared network medium.
* :class:`~repro.sim.process.SimProcess` — the per-process shell: crash
  state, timers, and the mount point for protocol layers.
* :class:`~repro.sim.trace.TraceObserver` — the event-sink interface
  (one ``record`` per event, fanned out to subscribed probe hooks),
  with the full :class:`~repro.sim.trace.Trace` consumed by the
  checkers and the minimal :class:`~repro.sim.trace.CountingTrace`
  used by probe-measured performance runs.

Determinism is a hard guarantee: two runs with identical configuration and
seeds produce identical traces (asserted in ``tests/sim/test_determinism.py``).
"""

from repro.sim.engine import Engine, EventHandle
from repro.sim.process import SimProcess
from repro.sim.resources import FifoResource
from repro.sim.rng import RngRegistry
from repro.sim.trace import CountingTrace, Trace, TraceObserver

__all__ = [
    "CountingTrace",
    "Engine",
    "EventHandle",
    "FifoResource",
    "RngRegistry",
    "SimProcess",
    "Trace",
    "TraceObserver",
]
