"""Composition of the sharded service.

:func:`build_sharded_system` builds ``k`` *independent* registry
stacks — every shard is a full abcast group (network, transports,
failure detectors, broadcast, consensus, abcast), built by the same
:func:`~repro.stack.builder.build_system` the single-group experiments
use — and composes them on **one** engine (one simulated clock) behind
a :class:`~repro.shard.router.Router` and a
:class:`~repro.shard.commit.TwoGroupCommit` coordinator.

Randomness: one root :class:`~repro.sim.rng.RngRegistry` seeded from
the stack spec; each group receives ``root.fork(f"shard.{i}")``, so the
groups' streams are mutually independent but the whole k-shard run is a
pure function of one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.exceptions import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceObserver
from repro.shard.commit import TwoGroupCommit
from repro.shard.router import Router
from repro.stack.builder import StackSpec, System, build_system

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.failure.crash import CrashSchedule


@dataclass(frozen=True)
class ShardSpec:
    """A sharded service: ``shards`` copies of one stack + router knobs.

    Attributes:
        stack: The per-group stack template (any registry-built stack:
            indirect, faulty-ids, sequencer, ...).
        shards: Number of independent abcast groups.
        router_capacity: Max in-flight operations per shard.
        admission: Overload policy: ``"shed"`` or ``"delay"`` (FIFO park).
        router_latency: Client→entry-replica forwarding hop, seconds.
        commit_payload: Wire size of prepare/outcome messages.
    """

    stack: StackSpec
    shards: int = 4
    router_capacity: int = 64
    admission: str = "shed"
    router_latency: float = 50e-6
    commit_payload: int = 64

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}"
            )
        if self.admission not in ("shed", "delay"):
            raise ConfigurationError(
                f"unknown admission policy {self.admission!r}; "
                "valid: 'shed', 'delay'"
            )
        if self.router_capacity < 1:
            raise ConfigurationError(
                f"router_capacity must be >= 1, got {self.router_capacity}"
            )


@dataclass
class ShardedSystem:
    """The composed service: k groups, one clock, router + commit."""

    spec: ShardSpec
    engine: Engine
    rngs: RngRegistry
    groups: list[System]
    router: Router
    commit: TwoGroupCommit
    #: Per-group crash schedules that were armed (shard -> schedule).
    crashes: dict[int, "CrashSchedule"] = field(default_factory=dict)

    def run(
        self,
        until: float,
        max_events: int | None = None,
        stop_when=None,
    ) -> float:
        """Advance the shared clock to ``until``."""
        return self.engine.run(
            until=until, max_events=max_events, stop_when=stop_when
        )

    def run_until_quiescent(
        self, timeout: float, max_events: int | None = None
    ) -> bool:
        """Run until no operation is in flight anywhere (or timeout).

        Quiescent = the router holds nothing (in-flight or parked),
        every transaction is decided, every correct replica's abcast
        backlog is empty (no accepted-but-unordered message anywhere —
        e.g. a commit outcome still being ordered), and every group's
        correct replicas have adelivered the same number of messages
        (nothing still crossing a group).
        """

        def quiet() -> bool:
            if self.router.pending() or self.commit.pending():
                return False
            for group in self.groups:
                counts = set()
                for pid in group.correct_processes():
                    abcast = group.abcasts[pid]
                    if any(abcast.backlog().values()):
                        return False
                    counts.add(abcast.delivered_count())
                if len(counts) > 1:
                    return False
            return True

        self.engine.run(
            until=timeout, max_events=max_events, stop_when=quiet
        )
        return quiet()

    def close(self) -> None:
        """End the run: close every group (and with them the shared
        engine); see :meth:`~repro.stack.builder.System.close`.

        The router's counters and completion log stay readable.
        Idempotent.
        """
        for group in self.groups:
            group.close()

    def __enter__(self) -> "ShardedSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def traces(self) -> list[TraceObserver]:
        """Per-group traces, shard order."""
        return [group.trace for group in self.groups]

    def check(self, expect_quiescent: bool = True) -> None:
        """Run every safety check: per-group abcast + cross-group.

        Requires full :class:`~repro.sim.trace.Trace` observers.
        Raises :class:`~repro.core.exceptions.ProtocolViolationError`
        on the first violation.
        """
        from repro.checkers.abcast import check_abcast
        from repro.checkers.shard import ShardChecker

        for group in self.groups:
            check_abcast(group.trace, group.config)
        ShardChecker(
            self.traces(), self.groups[0].config
        ).check_all(expect_quiescent=expect_quiescent)


def build_sharded_system(
    spec: ShardSpec,
    crashes: Mapping[int, "CrashSchedule"] | None = None,
    traces: Sequence[TraceObserver] | None = None,
) -> ShardedSystem:
    """Build ``spec.shards`` groups on one engine behind a router.

    Args:
        spec: The sharded-service spec.
        crashes: Optional per-shard crash schedules (shard id -> the
            schedule armed inside that group); shards absent from the
            mapping run failure-free.
        traces: Optional per-group trace observers (length ``shards``);
            defaults to a full :class:`~repro.sim.trace.Trace` per
            group.  Pass :class:`~repro.sim.trace.CountingTrace`
            observers for measurement runs; either kind calls the probe
            hooks given as its ``sinks``.
    """
    crashes = dict(crashes or {})
    for shard in crashes:
        if not 0 <= shard < spec.shards:
            raise ConfigurationError(
                f"crash schedule names shard {shard}, valid: "
                f"0..{spec.shards - 1}"
            )
    if traces is not None and len(traces) != spec.shards:
        raise ConfigurationError(
            f"got {len(traces)} traces for {spec.shards} shards"
        )

    engine = Engine()
    root = RngRegistry(seed=spec.stack.seed)
    groups: list[System] = []
    for i in range(spec.shards):
        groups.append(
            build_system(
                spec.stack,
                crashes=crashes.get(i),
                trace=None if traces is None else traces[i],
                engine=engine,
                rngs=root.fork(f"shard.{i}"),
            )
        )
    router = Router(
        engine,
        groups,
        capacity=spec.router_capacity,
        policy=spec.admission,
        forward_latency=spec.router_latency,
    )
    commit = TwoGroupCommit(router, payload_size=spec.commit_payload)
    return ShardedSystem(
        spec=spec,
        engine=engine,
        rngs=root,
        groups=groups,
        router=router,
        commit=commit,
        crashes=crashes,
    )
