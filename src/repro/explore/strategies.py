"""Search strategies over the deviation-schedule space.

All strategies are *stateless-search* drivers: they never checkpoint a
simulation, they re-execute schedules from scratch (the engine is
deterministic, so a schedule is its decision list).  A schedule is a
sparse deviation tuple; the search tree's children of a schedule are
the schedules that add one deviation at a step *after* its last one,
taken from the menus the parent's execution recorded — every deviation
set is therefore enumerated exactly once, in sorted-step canonical
order.

Every strategy is one sequential search over one spec, so its result
depends on the spec alone; parallelism lives a level up, in
:func:`repro.explore.runner.explore_many`, one spec per worker.

Registered strategies (``STRATEGIES``, a
:class:`~repro.stack.registry.LayerRegistry` like every other pluggable
family):

* ``delay-bounded`` — breadth-first over deviation count: all
  0-deviation schedules, then 1, then 2, ...  This is delay-bounded
  search in the Emmi/Qadeer/Rakamarić sense with the deviation budget
  as the bound; bugs reachable with few deviations (the Section 2.2
  violation needs three: defer both copies of the data, crash the
  sender) surface before the combinatorial tail.
* ``dfs`` — depth-first over the same tree: cheapest frontier memory,
  finds deep deviation stacks first; the exhaustive option within its
  budgets.
* ``random-walk`` — the seeded fallback for spaces too large to
  enumerate: each schedule samples deviations uniformly from the menus
  of the previous run.

Tree strategies expand every run their budget can reach and cut
nothing off: a search that reports ``exhausted`` ran every canonical
schedule (see :mod:`repro.explore.scheduler`) within ``max_deviations``
and the crash budget, except below a violating or runaway run, which is
not expanded.  :func:`children_of` reads a run's menus only
inside its *expansion window*, from the step after the schedule's last
deviation on, and the tree search tells the executor that window up
front (:func:`expansion_window`) so the run records those steps only;
a leaf schedule — no deviation budget left — records nothing.

*Reachability rule.*  A schedule runs as a leaf too when none of its
children can run: the search runs ``ahead`` schedules before any child
(``len(frontier)`` breadth-first; 0 depth-first, which never triggers
the rule) and has ``left = budget - schedules - 1`` runs after this
one, and ``ahead > left``.  Both fall by one per later pop, so the rule
then holds to the end; being strict, it always leaves an unrun
schedule queued, so ``exhausted`` is unaffected.  Windows and this rule
change no result: executing every schedule eagerly and expanding it
with :func:`children_of` runs the same schedules in the same order
(``tests/explore/test_demand_driven.py``).  Children are generated
defers first, then crashes, then tie reorders — message loss through
crash-with-in-flight-data is the historically productive direction, so
it gets the head of the queue.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.explore.executor import RunRecord, ScheduleExecutor, Violation
from repro.explore.scheduler import Deviation, Menu
from repro.stack.registry import LayerRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explore.executor import ExploreSpec

Schedule = tuple[Deviation, ...]

STRATEGIES = LayerRegistry("strategy")


@dataclass
class SearchResult:
    """What one strategy run produced."""

    violations: list[Violation] = field(default_factory=list)
    schedules: int = 0
    #: Always 0: no search prunes (the e2e ``explore_hunt`` reads it).
    pruned: int = 0
    exhausted: bool = False


def children_of(
    schedule: Schedule, record: RunRecord, spec: "ExploreSpec"
) -> list[Schedule]:
    """Expand one executed schedule into its canonical children.

    New deviations are placed at steps strictly after the schedule's
    last one.  Menus outside :func:`expansion_window` are never read.
    """
    if len(schedule) >= spec.max_deviations:
        return []
    start = schedule[-1].step + 1 if schedule else 0
    children: list[Schedule] = []
    for menu in record.menus:
        if menu.step < start:
            continue
        for index in menu.deferrable:
            children.append(schedule + (Deviation(menu.step, "d", index),))
        for pid in menu.crashable:
            children.append(schedule + (Deviation(menu.step, "c", pid),))
        for index in range(1, menu.ready):
            children.append(schedule + (Deviation(menu.step, "f", index),))
    return children


def expansion_window(
    schedule: Schedule,
    spec: "ExploreSpec",
    ahead: int = 0,
    left: int = 0,
) -> int | None:
    """The first step of ``schedule``'s run that :func:`children_of`
    reads, or ``None`` when no child can run: no deviation budget left,
    or more schedules run ``ahead`` of the children than runs are
    ``left``.
    """
    if len(schedule) >= spec.max_deviations or ahead > left:
        return None
    return schedule[-1].step + 1 if schedule else 0


def _tree_search(
    executor: ScheduleExecutor,
    spec: "ExploreSpec",
    *,
    depth_first: bool,
) -> SearchResult:
    """Breadth- or depth-first over the deviation tree."""
    result = SearchResult()
    frontier: deque[Schedule] = deque([()])
    while frontier and result.schedules < spec.budget:
        schedule = frontier.pop() if depth_first else frontier.popleft()
        # Breadth-first runs the whole frontier before this schedule's
        # children; depth-first runs them next.
        ahead = 0 if depth_first else len(frontier)
        left = spec.budget - result.schedules - 1
        window = expansion_window(schedule, spec, ahead, left)
        record = executor.run(schedule, window=window)
        result.schedules += 1
        if record.violation is not None:
            result.violations.append(record.violation)
            if spec.stop_after and len(result.violations) >= spec.stop_after:
                return result
            continue  # a violating run's checkers stopped early: don't expand
        if record.diverged or window is None:
            continue  # runaway schedule (truncated menus), or no child can run
        children = children_of(schedule, record, spec)
        if depth_first:
            frontier.extend(reversed(children))
        else:
            frontier.extend(children)
    result.exhausted = not frontier
    return result


def _random_walk(
    executor: ScheduleExecutor, spec: "ExploreSpec"
) -> SearchResult:
    """Sample schedules from the previous run's menus (seeded)."""
    from repro.sim.rng import RngRegistry

    # The stream name fixes every random-walk schedule: keep it.
    rng: random.Random = RngRegistry(seed=spec.seed).stream(
        "explore.random-walk.0"
    )
    result = SearchResult()

    def note(record: RunRecord) -> bool:
        result.schedules += 1
        if record.violation is not None:
            result.violations.append(record.violation)
            return bool(
                spec.stop_after
                and len(result.violations) >= spec.stop_after
            )
        return False

    base = executor.run(())
    if note(base):
        return result
    if spec.max_deviations < 1:
        # With a zero depth bound the default schedule is the only
        # in-bound one: the space is exhausted.
        result.exhausted = True
        return result
    menus: tuple[Menu, ...] = base.menus
    while result.schedules < spec.budget:
        deviations: list[Deviation] = []
        if menus:
            count = rng.randint(1, spec.max_deviations)
            steps = sorted(
                rng.sample(range(len(menus)), min(count, len(menus)))
            )
            for step in steps:
                menu = menus[step]
                # Over-budget crash picks are skipped leniently by the
                # executing scheduler, so no bookkeeping is needed here.
                options: list[Deviation] = [
                    Deviation(menu.step, "d", i) for i in menu.deferrable
                ] + [
                    Deviation(menu.step, "c", pid) for pid in menu.crashable
                ] + [
                    Deviation(menu.step, "f", i) for i in range(1, menu.ready)
                ]
                if not options:
                    continue
                deviations.append(options[rng.randrange(len(options))])
        record = executor.run(tuple(deviations))
        if note(record):
            return result
        if record.menus and not record.diverged:
            menus = record.menus
    return result


STRATEGIES.register(
    "delay-bounded",
    "breadth-first by deviation count (few-deviation bugs surface first)",
    factory=partial(_tree_search, depth_first=False),
)
STRATEGIES.register(
    "dfs",
    "depth-first over the deviation tree (exhaustive within its budgets)",
    factory=partial(_tree_search, depth_first=True),
)
STRATEGIES.register(
    "random-walk",
    "seeded random deviation sampling (fallback for huge spaces)",
    factory=_random_walk,
)


def run_strategy(spec: "ExploreSpec") -> SearchResult:
    """Run ``spec.strategy`` (resolved through :data:`STRATEGIES`)."""
    return STRATEGIES.get(spec.strategy).factory(ScheduleExecutor(spec), spec)
