"""Demand-driven exploration changes no search result.

The tree search records (and fingerprints) only a schedule's *expansion
window* — the steps :func:`~repro.explore.strategies.children_of` can
read — and lets the engine finish the rest of the run without
consulting the scheduler.  Pure performance: these tests run the search
as shipped next to a reference that executes every schedule *eagerly*
(``executor.run(schedule)``: a menu and a fingerprint at every step)
and expands it with the same ``children_of``, and demand identical
results; then they compare the windowed records with the eager ones
step for step.
"""

from collections import deque
from dataclasses import replace

import pytest

from repro.explore import explore_spec
from repro.explore.executor import ScheduleExecutor
from repro.explore.runner import _search_parallel
from repro.explore.scheduler import Deviation
from repro.explore.strategies import (
    SearchResult,
    children_of,
    expansion_window,
    run_strategy,
)

PRESETS = ("faulty", "indirect")
STRATEGIES = ("delay-bounded", "dfs")
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
        result.pruned,
        result.exhausted,
        [(v.prop, v.repro, v.steps) for v in result.violations],
    )


def _eager_search(spec) -> SearchResult:
    """The tree search with nothing demand-driven about it."""
    executor = ScheduleExecutor(spec)
    depth_first = spec.strategy == "dfs"
    result = SearchResult()
    frontier = deque([()])
    visited: dict[str, int] = {}
    while frontier and result.schedules < spec.budget:
        schedule = frontier.pop() if depth_first else frontier.popleft()
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
    return result


@pytest.mark.parametrize("defer_delay", DEFER_DELAYS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("preset", PRESETS)
def test_search_equals_the_eager_reference(preset, strategy, defer_delay):
    spec = _spec(preset, strategy, defer_delay)
    shipped = run_strategy(spec)
    assert _summary(shipped) == _summary(_eager_search(spec))
    assert shipped.schedules == spec.budget
    if strategy == "delay-bounded":  # dfs digs elsewhere on this budget
        assert bool(shipped.violations) == (preset == "faulty")


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
    assert expansion_window(leaf[:-1], spec, None) == (leaf[-2].step + 1, None)
    first, covered = expansion_window((), spec, {"a": 3, "b": 2})
    assert first == 0
    # Covered by an equal-or-larger budget, or seen earlier in this run.
    assert [covered(fp) for fp in "abcc"] == [True, False, False, True]


def test_parallel_budget_shares_sum_to_the_budget(monkeypatch):
    import repro.harness.runner as harness_runner

    budgets = []

    def fake_parallel_map(fn, items, processes=None):
        budgets.extend(item[2] for item in items)
        return [SearchResult(schedules=item[2], exhausted=False)
                for item in items]

    monkeypatch.setattr(harness_runner, "parallel_map", fake_parallel_map)
    spec = explore_spec("faulty", budget=101, stop_after=0)
    result = _search_parallel(spec, jobs=3)
    # 100 schedules after the root run over 3 shards: 34 + 33 + 33.
    assert budgets == [34, 33, 33]
    assert result.schedules == 101
