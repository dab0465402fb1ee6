"""Delta-debugging minimisation of violating schedules.

A violating schedule found by search — a random walk in particular —
usually carries deviations that had nothing to do with the bug.  The
shrinker runs classic ``ddmin`` over the deviation tuple: remove
chunks, re-execute, keep any candidate that still violates the same
property, until the schedule is 1-minimal (removing any single
deviation loses the violation).

Execution is the same deterministic replay the search used, so the
shrunk schedule's repro string is a complete, portable counterexample:
``replay(spec, repro)`` rebuilds the full :class:`~repro.sim.trace.
Trace` and the checkers report the identical violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.explore.executor import RunRecord, ScheduleExecutor, Violation
from repro.explore.scheduler import Deviation


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of minimising one violating schedule."""

    violation: Violation        #: the violation as reproduced by the minimum
    original: tuple[Deviation, ...]
    runs: int                   #: replays the minimisation spent
    record: RunRecord           #: the minimal schedule's run record

    @property
    def deviations(self) -> tuple[Deviation, ...]:
        return self.violation.deviations

    @property
    def repro(self) -> str:
        return self.violation.repro

    def removed(self) -> int:
        return len(self.original) - len(self.deviations)


def shrink(
    executor: ScheduleExecutor,
    violation: Violation,
    *,
    max_runs: int = 256,
) -> ShrinkResult:
    """Minimise ``violation``'s schedule with ``ddmin``.

    A candidate reproduces when re-execution yields a violation of the
    same property name (the detail text may differ — event times move
    when deviations are removed).  Deviations keep their absolute step
    indices: a removed early deviation shifts what later steps mean,
    which simply makes such candidates fail to reproduce and be
    rejected — the usual delta-debugging treatment of interference.
    """
    original = tuple(sorted(violation.deviations))
    runs = 0

    def attempt(candidate: tuple[Deviation, ...]) -> RunRecord | None:
        nonlocal runs
        runs += 1
        record = executor.run(candidate, window=None)
        if (
            record.violation is not None
            and record.violation.prop == violation.prop
        ):
            return record
        return None

    current = original
    # Re-execute the original once: the shrink result's record must come
    # from a replay, not be inherited from the search.
    best = attempt(current)
    if best is None:
        # The violation does not reproduce standalone (should not happen
        # with a deterministic executor); report it unshrunk.
        return ShrinkResult(
            violation=violation,
            original=original,
            runs=runs,
            record=executor.run(current, window=None),
        )

    granularity = 2
    while len(current) >= 2 and runs < max_runs:
        chunk = math.ceil(len(current) / granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            candidate = current[:start] + current[start + chunk:]
            record = attempt(candidate)
            if record is not None:
                current, best = candidate, record
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if runs >= max_runs:
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)

    # Final 1-minimality pass: try dropping each deviation singly.
    changed = True
    while changed and runs < max_runs:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            record = attempt(candidate)
            if record is not None:
                current, best = candidate, record
                changed = True
                break
            if runs >= max_runs:
                break

    assert best.violation is not None
    return ShrinkResult(
        violation=best.violation,
        original=original,
        runs=runs,
        record=best,
    )
