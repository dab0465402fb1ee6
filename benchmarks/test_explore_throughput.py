"""Macro-benchmark: schedules/sec on the Section 2.2 bug hunt.

The explorer's cost model is *schedules executed per second*: a bounded
search is thousands of full re-executions of the same small simulation.
One schedule pays (a) a fresh ``build_system``, (b) the *replayed
prefix* up to its last deviation — the controlled loop with the
scheduler keeping bare replay bookkeeping, (c) its *expansion window* —
a menu and a state fingerprint per step, up to the first fingerprint
the search has already covered, (d) the *passive suffix* — the rest of
the run on the engine's plain drain loop, scheduler not consulted — and
(e) the checkers.  PR 7 made (b) and (c) cheap per step (the singleton
``Scheduler.wants`` path, the incremental rolling-hash fingerprint);
PR 15 stopped paying (c) outside the window at all — before it, every
step of every run built a menu and a fingerprint, 90 % of them never
read.  This figure is the ledger entry those changes answer to
(``BENCH_pr7.json`` onwards; the pre-PR-7 figure, measured on the same
container, is recorded in ``extra_info`` as
``baseline_schedules_per_sec``).

Two shapes are measured:

* the *pruned search* — the default delay-bounded strategy, windowed
  menus and fingerprints, a fixed budget, no early stop: the
  steady-state cost of the CI exploration matrix;
* the *replay path* — nothing recorded, passive as soon as the last
  deviation is behind: the shape shrinking and ``--replay`` pay per
  schedule.
"""

from __future__ import annotations

from repro.explore import ScheduleExecutor, explore_spec
from repro.explore.strategies import run_strategy

#: Schedules per timed round of the search benchmark.  Small enough to
#: keep the bench-smoke job quick, large enough that per-round setup
#: (one root execution, strategy bookkeeping) is noise.
BUDGET = 120

#: The pre-PR-7 figures on the reference container (schedules/sec),
#: committed so the ledger shows the ratio even though this file did
#: not exist when BENCH_pr6.json was recorded.
BASELINE_SCHEDULES_PER_SEC = 142.2   # pruned search
BASELINE_REPLAY_PER_SEC = 951.3      # menus/fingerprints-off replay


def _hunt_spec(**overrides):
    # The Section 2.2 hunt: faulty-ids at n=3, constant latency,
    # drop-in-flight — the configuration the CI smoke matrix runs.
    overrides.setdefault("budget", BUDGET)
    overrides.setdefault("stop_after", 0)  # fixed work: never stop early
    return explore_spec("faulty", **overrides)


def _search() -> int:
    result = run_strategy(_hunt_spec())
    assert result.schedules == BUDGET, result.schedules
    assert result.violations, "the hunt must keep finding the 2.2 bug"
    return result.schedules


def _replays() -> int:
    executor = ScheduleExecutor(_hunt_spec())
    for _ in range(30):
        record = executor.run((), menus=False, fingerprints=False)
        assert not record.diverged
    return 30


def test_explore_schedules_per_sec(benchmark):
    """The pruned delay-bounded search (menus + fingerprints on)."""
    schedules = benchmark(_search)
    benchmark.extra_info["schedules_per_sec"] = round(
        schedules / benchmark.stats.stats.mean, 1
    )
    benchmark.extra_info["baseline_schedules_per_sec"] = (
        BASELINE_SCHEDULES_PER_SEC
    )


def test_explore_replay_schedules_per_sec(benchmark):
    """The shrink/replay execution shape (menus + fingerprints off)."""
    schedules = benchmark(_replays)
    benchmark.extra_info["schedules_per_sec"] = round(
        schedules / benchmark.stats.stats.mean, 1
    )
    benchmark.extra_info["baseline_schedules_per_sec"] = (
        BASELINE_REPLAY_PER_SEC
    )
