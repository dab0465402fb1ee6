"""Stateless schedule execution: one fresh simulation per schedule.

Every explored schedule re-executes the configured scenario from
scratch under an :class:`~repro.explore.scheduler.ExploreScheduler`
playing the schedule's deviations; the engine's determinism (seeded
RNG streams, ``(time, seq)`` default order) guarantees the same
deviations always produce the same run, which is what makes repro
strings portable and shrinking meaningful.

A run's verdict comes from the existing trace checkers: the
:class:`~repro.checkers.abcast.AbcastChecker` property set always, the
indirect-consensus obligations (*No loss*, *v-stability*) when the
stack mounts an indirect algorithm.  Liveness-flavoured checks
(validity, agreement, Hypothesis A) are only asserted on runs that
actually drained — "not delivered *yet*" at a truncated horizon is not
a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.checkers.abcast import AbcastChecker
from repro.checkers.consensus import ConsensusChecker
from repro.core.exceptions import ConfigurationError, ProtocolViolationError
from repro.core.message import make_payload
from repro.explore.scheduler import (
    Deviation,
    ExploreScheduler,
    Menu,
    format_deviations,
    parse_deviations,
)
from repro.failure.crash import CrashSchedule
from repro.sim.engine import EventBudgetExceeded
from repro.sim.trace import Trace
from repro.stack.builder import StackSpec, System, build_system


@dataclass(frozen=True)
class ExploreSpec:
    """One bounded-exploration problem: a stack, a scenario, budgets.

    Attributes:
        name: Label used in reports and result sets.
        stack: The protocol stack under exploration.  Constant-latency
            networks give the explorer the most leverage (deliveries
            tie, data frames are deferrable); the contention model
            serialises everything through FIFO resources, leaving only
            crash placement to explore.
        sends: The scenario workload as ``(pid, time, payload_bytes)``
            triples; empty means the default scenario (the first two
            processes each abroadcast one 16-byte message at t=0 — the
            Section 2.2 shape: one message that can be lost, one from a
            survivor that can block behind it).
        horizon: Simulated seconds per schedule.  A deferred frame due
            past it is still pending when the run stops, so the run
            does not count as drained.
        strategy: Search strategy name in
            :data:`repro.explore.strategies.STRATEGIES`.
        budget: Maximum schedules (full re-executions) to explore.
        max_deviations: Depth bound — deviations per schedule.
        max_crashes: Crash budget per schedule; ``None`` means
            ``min(1, f)`` of the built system (the Section 2.2
            scenario needs exactly one crash, and every crash within
            ``f`` keeps the run inside the algorithms' contract).
        defer_delay: Simulated seconds a deferred data frame is held back
            (the bounded-delay adversary).  Far above the stack's
            per-hop latency, far below the horizon: plenty of room for
            a crash to make the delay permanent, while protocols that
            legitimately spin awaiting the frame (rcv-gated consensus
            rotating rounds) stay cheap to execute.
        prune: Skip decision prefixes whose state fingerprint an
            earlier schedule already covered with an equal-or-larger
            remaining budget (a fingerprint is computed when read; see
            :mod:`repro.explore.fingerprint`).
        stop_after: Stop once this many violating schedules were found
            (``0`` = exhaust the budget and report everything).
        consensus_checks: Also run the indirect-consensus checkers
            (*No loss*, *v-stability*); ``None`` = exactly when the
            stack's consensus is an indirect algorithm.
        seed: Seed of the ``explore.random-walk`` stream (random-walk
            strategy only).
        max_events: Per-schedule engine runaway guard.
        label: Presentation-only label (defaults to ``name``).
    """

    name: str
    stack: StackSpec
    sends: tuple[tuple[int, float, int], ...] = ()
    horizon: float = 1.0
    strategy: str = "delay-bounded"
    budget: int = 4000
    max_deviations: int = 3
    max_crashes: int | None = None
    defer_delay: float = 5e-3
    prune: bool = True
    stop_after: int = 1
    consensus_checks: bool | None = None
    seed: int = 0
    max_events: int = 500_000
    label: str = ""

    def __post_init__(self) -> None:
        sends = tuple(
            (int(pid), float(at), int(size)) for pid, at, size in self.sends
        )
        for pid, at, size in sends:
            if not 1 <= pid <= self.stack.n:
                raise ConfigurationError(
                    f"sends names p{pid}, but the stack has n={self.stack.n}"
                )
            if at < 0 or size < 0:
                raise ConfigurationError(
                    f"sends entries need time >= 0 and size >= 0, "
                    f"got ({pid}, {at}, {size})"
                )
        if not sends:
            senders = range(1, min(2, self.stack.n) + 1)
            sends = tuple((pid, 0.0, 16) for pid in senders)
        object.__setattr__(self, "sends", sends)
        if self.budget < 1:
            raise ConfigurationError("ExploreSpec.budget must be >= 1")
        if self.max_deviations < 0:
            raise ConfigurationError("ExploreSpec.max_deviations must be >= 0")
        if self.max_crashes is not None and self.max_crashes < 0:
            raise ConfigurationError("ExploreSpec.max_crashes must be >= 0")
        if self.stop_after < 0:
            raise ConfigurationError("ExploreSpec.stop_after must be >= 0")
        if self.max_events < 1:
            raise ConfigurationError("ExploreSpec.max_events must be >= 1")
        if self.horizon <= 0:
            raise ConfigurationError("ExploreSpec.horizon must be > 0")
        if self.defer_delay is None or self.defer_delay <= 0:
            raise ConfigurationError("ExploreSpec.defer_delay must be > 0")
        if not self.label:
            object.__setattr__(self, "label", self.name)

    def wants_consensus_checks(self) -> bool:
        if self.consensus_checks is not None:
            return self.consensus_checks
        return self.stack.consensus.endswith("-indirect")


@dataclass(frozen=True)
class Violation:
    """One property violation, with the schedule that produced it."""

    prop: str
    detail: str
    deviations: tuple[Deviation, ...]
    steps: int

    @property
    def repro(self) -> str:
        """The schedule as a repro string (``""`` = the default order)."""
        return format_deviations(self.deviations)

    def describe(self) -> str:
        where = self.repro or "<default schedule>"
        return f"{self.prop} [{where}]: {self.detail}"


@dataclass(frozen=True)
class RunRecord:
    """Outcome of executing one schedule."""

    deviations: tuple[Deviation, ...]
    applied: int
    skipped: int
    steps: int
    events: int
    drained: bool
    violation: Violation | None
    #: True when the schedule hit the ``max_events`` runaway guard; the
    #: run is inconclusive (no checkers ran) and is not expanded.
    diverged: bool = False
    #: The recorded menus, in step order: one per decision step for a
    #: plain ``run(schedule)``; only the steps of the expansion window
    #: (``Menu.step`` says which) when the run was given one; empty
    #: with ``menus=False``.
    menus: tuple[Menu, ...] = field(default=(), repr=False)


class ScheduleExecutor:
    """Builds and runs fresh systems under given deviation schedules."""

    def __init__(self, spec: ExploreSpec) -> None:
        self.spec = spec

    def _build(self) -> System:
        return build_system(
            self.spec.stack, CrashSchedule.none(), trace=Trace()
        )

    def _crash_budget(self, system: System) -> int:
        if self.spec.max_crashes is not None:
            return self.spec.max_crashes
        return min(1, system.config.f)

    @staticmethod
    def _send(system: System, pid: int, size: int) -> None:
        system.abcasts[pid].abroadcast(make_payload(size))

    def run(
        self,
        deviations: Iterable[Deviation] = (),
        *,
        menus: bool = True,
        fingerprints: bool | None = None,
        window: tuple[int, Callable[[str], bool] | None] | None = None,
        keep_system: bool = False,
    ) -> RunRecord | tuple[RunRecord, System]:
        """Execute one schedule; optionally return the full system too.

        The returned record's ``violation`` is the *first* property the
        checkers flagged (a violating schedule usually trips several).
        ``fingerprints`` defaults to ``menus and spec.prune``; a
        strategy that records menus but never prunes (random-walk)
        passes ``False`` to skip the hashing cost.  ``window`` — the
        ``(record_from, covered)`` pair of
        :class:`~repro.explore.scheduler.ExploreScheduler` — restricts
        recording to the steps a tree search can expand.  The run
        closes its system (see :meth:`~repro.stack.builder.System.close`)
        unless ``keep_system`` hands it to the caller, who then owns it.
        """
        spec = self.spec
        deviations = tuple(sorted(deviations))
        system = self._build()
        record_from, covered = window or (0, None)
        scheduler = ExploreScheduler(
            system,
            deviations,
            max_crashes=self._crash_budget(system),
            defer_delay=spec.defer_delay,
            fingerprints=(
                menus and spec.prune if fingerprints is None else fingerprints
            ),
            record_from=record_from if menus else None,
            covered=covered,
        )
        system.engine.install_scheduler(scheduler)
        for pid, at, size in spec.sends:
            system.processes[pid].schedule_at(
                at, self._send, system, pid, size
            )

        violation: Violation | None = None
        diverged = False
        try:
            system.engine.run(until=spec.horizon, max_events=spec.max_events)
        except ProtocolViolationError as error:
            # Layers assert some properties inline (e.g. the reduction's
            # double-ordering guard); an in-run violation is a find.
            violation = Violation(
                prop=error.prop,
                detail=error.detail,
                deviations=deviations,
                steps=scheduler.steps,
            )
        except EventBudgetExceeded:
            # This one schedule drove the protocol past the event
            # budget (e.g. a livelock its deviations provoked).
            # Inconclusive, not fatal — the search records it and
            # moves on.  Any other exception (including a plain
            # RuntimeError from a protocol bug) propagates.
            diverged = True

        drained = not diverged and system.engine.pending() == 0
        if violation is None and not diverged:
            try:
                AbcastChecker(system.trace, system.config).check_all(
                    expect_quiescent=drained
                )
                if spec.wants_consensus_checks() and drained:
                    # Termination is part of check_all, so (like the
                    # abcast liveness properties) the consensus checks
                    # only apply to runs that actually drained.
                    ConsensusChecker(system.trace, system.config).check_all(
                        no_loss=True, v_stability=True
                    )
            except ProtocolViolationError as error:
                violation = Violation(
                    prop=error.prop,
                    detail=error.detail,
                    deviations=deviations,
                    steps=scheduler.steps,
                )

        record = RunRecord(
            deviations=deviations,
            applied=len(scheduler.applied),
            skipped=len(scheduler.skipped),
            steps=scheduler.steps,
            events=system.engine.events_executed,
            drained=drained,
            violation=violation,
            diverged=diverged,
            menus=tuple(scheduler.menus),
        )
        if keep_system:
            return record, system
        system.close()
        return record


def replay(
    spec: ExploreSpec, deviations: Iterable[Deviation] | str
) -> tuple[System, RunRecord]:
    """Deterministically replay a schedule into a full simulation.

    Accepts a deviation tuple or a repro string.  The returned
    :class:`~repro.stack.builder.System` carries the complete
    :class:`~repro.sim.trace.Trace` of the counterexample, so every
    checker in :mod:`repro.checkers` and every tool in
    :mod:`repro.analysis` works on it unchanged.  The caller owns the
    system: it is left open, so close it (or use it in a ``with``
    block) when done — a sweep of replays otherwise piles up cyclic
    garbage.
    """
    if isinstance(deviations, str):
        deviations = parse_deviations(deviations)
    record, system = ScheduleExecutor(spec).run(
        deviations, menus=False, keep_system=True
    )
    return system, record
