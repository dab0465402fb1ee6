"""Shared test fixtures: small fabrics and run helpers.

Tests that exercise a single protocol layer (broadcast, consensus) build
a *fabric* — engine, trace, processes, transports, oracle detectors —
and mount only the layer under test, instead of a full stack.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.core.identifiers import MessageId, ProcessId
from repro.core.message import AppMessage, make_payload
from repro.failure.detector import FalseSuspicion, OracleFailureDetector, wire_oracle_detectors
from repro.net.models import ConstantLatencyNetwork, ContentionNetwork, NetworkParams
from repro.net.setups import SETUP_1
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.sim.engine import FIRE, Engine, Scheduler
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace


@dataclass
class Fabric:
    """A bare simulated network of ``n`` processes with oracle detectors."""

    config: SystemConfig
    engine: Engine
    trace: Trace
    network: ConstantLatencyNetwork | ContentionNetwork
    processes: dict[ProcessId, SimProcess]
    transports: dict[ProcessId, Transport]
    detectors: dict[ProcessId, OracleFailureDetector]
    rngs: RngRegistry = field(default_factory=RngRegistry)
    services: dict[ProcessId, object] = field(default_factory=dict)

    def run(
        self, until: float | None = None, max_events: int = 2_000_000
    ) -> float:
        """Run to ``until``, by default 10 s past the current time.

        The engine leaves its clock at ``until`` even when its queue
        empties first, so a horizon that is not ahead of the clock
        would run nothing: it is refused rather than passing vacuously.
        """
        if until is None:
            until = self.engine.now + 10.0
        elif until <= self.engine.now:
            raise ValueError(
                f"run(until={until}) is not ahead of the clock "
                f"({self.engine.now})"
            )
        return self.engine.run(until=until, max_events=max_events)

    def crash(self, pid: ProcessId, at: float) -> None:
        self.engine.schedule_at(at, self.processes[pid].crash)


def make_fabric(
    n: int,
    f: int | None = None,
    latency: float = 1e-3,
    seed: int = 0,
    detection_delay: float = 10e-3,
    network_kind: str = "constant",
    params: NetworkParams = SETUP_1,
    drop_in_flight: bool = False,
    faults: tuple = (),
    topology: Topology | None = None,
    false_suspicions: tuple[FalseSuspicion, ...] = (),
) -> Fabric:
    """Build a bare fabric (no protocol layers mounted)."""
    config = SystemConfig(n=n) if f is None else SystemConfig(n=n, f=f)
    engine = Engine()
    trace = Trace()
    rngs = RngRegistry(seed=seed)
    if network_kind == "constant":
        network: ConstantLatencyNetwork | ContentionNetwork = ConstantLatencyNetwork(
            engine,
            base=latency,
            drop_in_flight_of_crashed_sender=drop_in_flight,
            faults=faults,
            rngs=rngs,
            topology=topology,
        )
    else:
        network = ContentionNetwork(
            engine,
            params,
            drop_in_flight_of_crashed_sender=drop_in_flight,
            faults=faults,
            rngs=rngs,
            topology=topology,
        )
    processes = {pid: SimProcess(pid, engine, trace) for pid in config.processes}
    transports = {pid: Transport(processes[pid], network) for pid in config.processes}
    detectors = wire_oracle_detectors(
        processes, detection_delay=detection_delay, false_suspicions=false_suspicions
    )
    return Fabric(
        config=config,
        engine=engine,
        trace=trace,
        network=network,
        processes=processes,
        transports=transports,
        detectors=detectors,
        rngs=rngs,
    )


def trace_fingerprint(trace: Trace) -> str:
    """Canonical SHA-256 fingerprint of a full event trace.

    Every event is serialized to a text line containing its type, time
    (full float repr), process, and the identifiers/instance it names —
    deterministically ordered, so the digest is stable across interpreter
    runs and hash seeds.  Two runs with bit-identical protocol behaviour
    produce the same fingerprint; any divergence in timing, ordering, or
    content changes it.
    """
    import hashlib

    from repro.core.events import (
        ABroadcastEvent,
        ADeliverEvent,
        CrashEvent,
        DecideEvent,
        ProposeEvent,
        RBroadcastEvent,
        RDeliverEvent,
    )

    lines = []
    for event in trace.events:
        parts = [type(event).__name__, repr(event.time), str(event.process)]
        if isinstance(event, (ABroadcastEvent, ADeliverEvent,
                              RBroadcastEvent, RDeliverEvent)):
            mid = event.message.mid
            parts += [f"m{mid.origin}.{mid.seq}", str(event.message.payload.size)]
        elif isinstance(event, (ProposeEvent, DecideEvent)):
            ids = ",".join(f"m{i.origin}.{i.seq}" for i in sorted(event.value))
            parts += [str(event.instance), ids]
        elif isinstance(event, CrashEvent):
            pass
        lines.append(" ".join(parts))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def count_calls(fn, predicate):
    """Run ``fn()`` under a ``sys.setprofile`` hook and count its calls.

    The exact call-count budgets (frame path, record path, per-instance
    protocol cost) all measure the same thing: how many Python-level
    function calls a fixed drive makes, which repeats on any machine.
    ``predicate(code)`` sees the code object of every Python function
    entered while ``fn`` runs and returns the key to count that call
    under, or a falsy value to ignore it (C builtins are never seen).

    Returns ``(result of fn(), Counter of key -> calls)``.
    """
    counts: Counter = Counter()

    def hook(frame, event, _arg):
        if event == "call":
            key = predicate(frame.f_code)
            if key:
                counts[key] += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts


_mid_counter = [0]


def fresh_mid(origin: int = 1) -> MessageId:
    """A unique message id for value-level consensus tests."""
    _mid_counter[0] += 1
    return MessageId(origin=origin, seq=_mid_counter[0])


def app_message(origin: int = 1, seq: int | None = None, size: int = 10) -> AppMessage:
    """A small application message for broadcast-layer tests."""
    mid = fresh_mid(origin) if seq is None else MessageId(origin, seq)
    return AppMessage(mid=mid, payload=make_payload(size))


class EngineTap:
    """Stands in for ``owner.engine`` and keeps every handle the owner
    schedules through it, with the arguments it passed.

    Tapping a constant-latency network learns its frame deliveries
    (``_transmit`` schedules one per frame, the frame its one
    argument); tapping a :class:`SimProcess` learns its timers.  A test
    oracle for the explorer's reading of heap entries, sharing none of
    it.  Only what is scheduled after the tap is known.
    """

    def __init__(self, owner) -> None:
        self._engine = owner.engine
        #: id(handle) -> (handle, args); the handle is kept so that
        #: its id is never reused.
        self._scheduled: dict[int, tuple[list, tuple]] = {}
        owner.engine = self

    def schedule(self, delay, fn, *args):
        return self._keep(self._engine.schedule(delay, fn, *args), args)

    def schedule_at(self, time, fn, *args):
        return self._keep(self._engine.schedule_at(time, fn, *args), args)

    def _keep(self, handle, args):
        self._scheduled[id(handle)] = (handle, args)
        return handle

    def args_of(self, record) -> tuple | None:
        """The arguments the owner scheduled ``record`` with, or
        ``None`` if it did not schedule it."""
        kept = self._scheduled.get(id(record))
        return None if kept is None else kept[1]

    def __getattr__(self, name):
        return getattr(self._engine, name)


class DecidesAt(Scheduler):
    """Consulted at the given steps only: the engine drains the
    stretches between them, and the rest of the run after the last."""

    def __init__(self, *steps):
        self.at = steps
        self.step = 0
        self.consulted = []

    def free_steps(self):
        upcoming = [s for s in self.at if s >= self.step]
        return min(upcoming) - self.step if upcoming else None

    def on_stretch(self, fired):
        self.step += fired

    def decide(self, now, ready):
        self.consulted.append(self.step)
        self.step += 1
        return (FIRE, 0)
