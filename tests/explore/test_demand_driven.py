"""Demand-driven exploration changes no search result.

The tree search records (and fingerprints) only a schedule's *expansion
window* — the steps :func:`~repro.explore.strategies.children_of` can
read — and lets the engine finish the rest of the run without
consulting the scheduler.  Once more schedules are queued ahead of a
schedule's children than its budget has runs left, it records nothing
at all and is not expanded: none of those children could ever run.
Pure performance: these tests run the search as shipped next to a
reference that executes every schedule *eagerly*
(``executor.run(schedule)``: a menu and a fingerprint at every step)
and expands every one with the same ``children_of``, and demand the
same schedules run in the same order with the same results — ``pruned``
aside, which counts the cut-offs of the runs a search expands; then
they compare the windowed records with the eager ones step for step.
"""

from collections import deque
from dataclasses import replace

import pytest

from repro.explore import explore_spec
from repro.explore.executor import ScheduleExecutor
from repro.explore.scheduler import Deviation
from repro.explore.strategies import (
    STRATEGIES,
    SearchResult,
    children_of,
    expansion_window,
)

PRESETS = ("faulty", "indirect")
TREE_STRATEGIES = ("delay-bounded", "dfs")
#: A defer is always a bounded delay: 5 ms (the default), and ten
#: times that, so a held-back frame lands behind many more events.
DEFER_DELAYS = (5e-3, 5e-2)


def _spec(preset, strategy, defer_delay, budget=80):
    return explore_spec(
        preset,
        budget=budget,
        stop_after=0,
        strategy=strategy,
        defer_delay=defer_delay,
        # A small runaway guard keeps any diverged (unexpanded) run
        # cheap.
        max_events=20_000,
    )


def _summary(result: SearchResult):
    return (
        result.schedules,
        result.exhausted,
        [(v.prop, v.repro, v.steps) for v in result.violations],
    )


class _LoggingExecutor(ScheduleExecutor):
    """Logs every schedule it runs, in order, and whether it was asked
    to record menus."""

    def __init__(self, spec):
        super().__init__(spec)
        self.log: list[tuple[Deviation, ...]] = []
        self.recorded: list[bool] = []

    def run(self, deviations=(), **kwargs):
        self.log.append(deviations)
        self.recorded.append(kwargs.get("menus", True))
        return super().run(deviations, **kwargs)


def _shipped_search(spec):
    executor = _LoggingExecutor(spec)
    result = STRATEGIES.get(spec.strategy).factory(executor, spec)
    return result, executor.log, executor.recorded


def _eager_search(spec):
    """The tree search with nothing demand-driven about it: every run
    recorded in full and expanded, whether or not its budget can reach
    the children.  Also returns, per run, whether it has deviation
    budget left and its search has a run left for every schedule
    queued ahead of its children (none are, depth-first)."""
    executor = _LoggingExecutor(spec)
    depth_first = spec.strategy == "dfs"
    result = SearchResult()
    frontier = deque([()])
    visited: dict[str, int] = {}
    expandable: list[bool] = []
    while frontier and result.schedules < spec.budget:
        schedule = frontier.pop() if depth_first else frontier.popleft()
        runs_left = spec.budget - result.schedules - 1
        expandable.append(
            len(schedule) < spec.max_deviations
            and (depth_first or len(frontier) <= runs_left)
        )
        record = executor.run(schedule)
        assert len(record.menus) == record.steps  # every step recorded
        result.schedules += 1
        if record.violation is not None:
            result.violations.append(record.violation)
            continue
        if record.diverged:
            continue
        children = children_of(schedule, record, spec, visited, result)
        frontier.extend(reversed(children) if depth_first else children)
    result.exhausted = not frontier
    return result, executor.log, expandable


def _assert_same_search(spec):
    shipped, shipped_log, recorded = _shipped_search(spec)
    reference, reference_log, expandable = _eager_search(spec)
    assert _summary(shipped) == _summary(reference)
    assert shipped_log == reference_log
    # The shipped search records exactly the runs it may expand.
    assert recorded == expandable
    if spec.strategy == "dfs":  # its children always run next
        assert shipped.pruned == reference.pruned
    else:
        assert shipped.pruned <= reference.pruned
    return shipped


@pytest.mark.parametrize("defer_delay", DEFER_DELAYS)
@pytest.mark.parametrize("strategy", TREE_STRATEGIES)
@pytest.mark.parametrize("preset", PRESETS)
def test_search_equals_the_eager_reference(preset, strategy, defer_delay):
    spec = _spec(preset, strategy, defer_delay)
    shipped = _assert_same_search(spec)
    assert shipped.schedules == spec.budget
    assert not shipped.exhausted
    if strategy == "delay-bounded":  # dfs digs elsewhere on this budget
        assert bool(shipped.violations) == (preset == "faulty")


@pytest.mark.parametrize("budget", (110, 200))
@pytest.mark.parametrize("strategy", TREE_STRATEGIES)
def test_a_small_tree_cut_by_its_budget_or_exhausted(strategy, budget):
    """Two processes, three deviations: 124 schedules cover the tree,
    so a budget of 200 exhausts it and one of 110 stops breadth-first
    search part-way, where runs with and without reachable children
    interleave."""
    spec = explore_spec(
        "faulty", n=2, max_deviations=3, budget=budget, stop_after=0,
        strategy=strategy,
    )
    shipped = _assert_same_search(spec)
    assert (shipped.schedules, shipped.exhausted) == (
        min(budget, 124), budget > 124,
    )
    assert shipped.pruned > 0


class _CountingReads(dict):
    """A ``visited`` copy that counts ``children_of``'s lookups."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


@pytest.mark.parametrize("defer_delay", DEFER_DELAYS)
def test_windowed_records_are_exactly_what_children_of_reads(defer_delay):
    """Every schedule of a depth-first search, run windowed and eagerly:
    same outcome, and the windowed menus are the slice of the eager
    ones — fingerprints included — that ``children_of`` reads, from the
    window's first step to the cut-off, no menu more."""
    spec = _spec("faulty", "dfs", defer_delay, budget=60)
    executor = ScheduleExecutor(spec)
    visited: dict[str, int] = {}
    result = SearchResult()
    frontier = [()]
    leaves = windowed_menus = eager_menus = 0
    for _ in range(spec.budget):
        schedule = frontier.pop()
        window = expansion_window(schedule, spec, visited)
        record = executor.run(
            schedule, menus=window is not None, window=window
        )
        eager = executor.run(schedule)
        # Same run in every field but the menus.
        assert replace(record, menus=()) == replace(eager, menus=())
        assert [menu.step for menu in eager.menus] == list(range(eager.steps))
        if window is None:
            assert record.menus == ()  # a leaf records nothing
            leaves += 1
        else:
            first = window[0]
            assert record.menus == eager.menus[first:first + len(record.menus)]
        windowed_menus += len(record.menus)
        eager_menus += len(eager.menus)
        if eager.violation is not None or eager.diverged:
            continue
        counting = _CountingReads(visited)
        expected = children_of(schedule, eager, spec, counting, SearchResult())
        assert len(record.menus) == counting.reads
        children = children_of(schedule, record, spec, visited, result)
        assert children == expected
        frontier.extend(reversed(children))
    assert leaves > 0 and result.pruned > 0
    assert 0 < windowed_menus < eager_menus / 2


def test_expansion_window_of_leaves_and_unpruned_searches():
    spec = explore_spec("faulty")
    leaf = tuple(Deviation(i, "f", 1) for i in range(spec.max_deviations))
    assert expansion_window(leaf, spec, {}) is None
    # More schedules queued ahead of the children than runs left.
    assert expansion_window((), spec, {}, ahead=5, left=4) is None
    assert expansion_window((), spec, None, ahead=4, left=4) == (0, None)
    assert expansion_window(leaf[:-1], spec, None) == (leaf[-2].step + 1, None)
    first, covered = expansion_window((), spec, {"a": 3, "b": 2})
    assert first == 0
    # Covered by an equal-or-larger budget, or seen earlier in this run.
    assert [covered(fp) for fp in "abcc"] == [True, False, False, True]
