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

Tree strategies prune on state fingerprints: a prefix whose fingerprint
an earlier schedule reached with an equal-or-larger remaining deviation
budget is not expanded again (symmetric interleavings of independent
events all converge to the same fingerprint), and expansion of a run
stops there — the *cut-off*.  :func:`children_of` therefore reads a
run's menus only inside its *expansion window*, from the step after the
schedule's last deviation up to and including the cut-off, and the tree
search tells the executor that window up front
(:func:`expansion_window`) so the run records and fingerprints those
steps only (see :mod:`repro.explore.scheduler`); a leaf schedule — no
deviation budget left — records nothing.

*Reachability rule.*  A schedule runs as a leaf too when none of its
children can run: the search runs ``ahead`` schedules before any child
(``len(frontier)`` breadth-first; 0 depth-first, which never triggers
the rule) and has ``left = budget - schedules - 1`` runs after this
one, and ``ahead > left``.  Both fall by one per later pop, so the rule
then holds to the end and the ``visited`` entries it leaves unwritten
are never read; being strict, it always leaves an unrun schedule
queued, so ``exhausted`` is unaffected.  Windows and this rule are
most of the pruned search's schedules/sec figure
(``explore.faulty_schedules_per_s`` of the e2e ``explore_hunt``
workload), and they change no result but ``pruned``: executing every
schedule eagerly and expanding it with :func:`children_of` runs the
same schedules in the same order
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
from typing import TYPE_CHECKING, Callable

from repro.explore.executor import RunRecord, ScheduleExecutor, Violation
from repro.explore.scheduler import Deviation, Menu
from repro.stack.registry import LayerRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explore.executor import ExploreSpec

Schedule = tuple[Deviation, ...]

STRATEGIES = LayerRegistry("strategy")


@dataclass
class SearchResult:
    """What one strategy run produced.

    ``pruned`` counts fingerprint cut-offs in the runs the search
    expanded; runs the reachability rule leaves unexpanded add none.
    """

    violations: list[Violation] = field(default_factory=list)
    schedules: int = 0
    pruned: int = 0
    exhausted: bool = False


def children_of(
    schedule: Schedule,
    record: RunRecord,
    spec: "ExploreSpec",
    visited: dict[str, int] | None = None,
    result: SearchResult | None = None,
) -> list[Schedule]:
    """Expand one executed schedule into its canonical children.

    New deviations are placed at steps strictly after the schedule's
    last one.  When ``visited`` is given, expansion stops at the first
    step whose state fingerprint was already expanded with at least the
    same remaining budget (the rest of this run's suffix tree is a
    duplicate); ``result.pruned`` counts the cut-offs.  Menus outside
    :func:`expansion_window` are never read.
    """
    remaining = spec.max_deviations - len(schedule)
    if remaining <= 0:
        return []
    start = schedule[-1].step + 1 if schedule else 0
    children: list[Schedule] = []
    for menu in record.menus:
        if menu.step < start:
            continue
        if visited is not None and menu.fingerprint is not None:
            seen = visited.get(menu.fingerprint, -1)
            if seen >= remaining:
                if result is not None:
                    result.pruned += 1
                break
            visited[menu.fingerprint] = remaining
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
    visited: dict[str, int] | None,
    ahead: int = 0,
    left: int = 0,
) -> tuple[int, Callable[[str], bool] | None] | None:
    """The steps of ``schedule``'s run that :func:`children_of` reads.

    ``None`` when no child can run: no deviation budget left, or more
    schedules run ``ahead`` of the children than runs are ``left``.
    Otherwise the first expandable step and — when
    pruning — a read-only test that is true exactly where
    :func:`children_of` breaks: at a fingerprint ``visited`` covers
    with at least this remaining budget, or one this same run already
    showed (``children_of`` will have marked it by then).
    """
    remaining = spec.max_deviations - len(schedule)
    if remaining <= 0 or ahead > left:
        return None
    start = schedule[-1].step + 1 if schedule else 0
    if visited is None:
        return (start, None)
    seen: set[str] = set()

    def covered(fingerprint: str) -> bool:
        if fingerprint in seen or visited.get(fingerprint, -1) >= remaining:
            return True
        seen.add(fingerprint)
        return False

    return (start, covered)


def _tree_search(
    executor: ScheduleExecutor,
    spec: "ExploreSpec",
    *,
    depth_first: bool,
) -> SearchResult:
    """Breadth- or depth-first over the deviation tree."""
    result = SearchResult()
    frontier: deque[Schedule] = deque([()])
    visited: dict[str, int] | None = {} if spec.prune else None
    while frontier and result.schedules < spec.budget:
        schedule = frontier.pop() if depth_first else frontier.popleft()
        # Breadth-first runs the whole frontier before this schedule's
        # children; depth-first runs them next.
        ahead = 0 if depth_first else len(frontier)
        left = spec.budget - result.schedules - 1
        window = expansion_window(schedule, spec, visited, ahead, left)
        record = executor.run(
            schedule, menus=window is not None, window=window
        )
        result.schedules += 1
        if record.violation is not None:
            result.violations.append(record.violation)
            if spec.stop_after and len(result.violations) >= spec.stop_after:
                return result
            continue  # a violating run's checkers stopped early: don't expand
        if record.diverged or window is None:
            continue  # runaway schedule (truncated menus), or no child can run
        children = children_of(schedule, record, spec, visited, result)
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

    base = executor.run((), fingerprints=False)
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
        record = executor.run(tuple(deviations), fingerprints=False)
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
