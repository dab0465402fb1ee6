"""Micro-benchmark: schedules/sec on the explorer's replay path.

A bounded search is thousands of full re-executions of the same small
simulation.  The search itself is measured end to end by the e2e
``explore_hunt`` workload (``explore.faulty_schedules_per_s``); what it
does not isolate is the shape shrinking and ``--replay`` pay per
schedule: a fresh ``build_system``, then the run with nothing recorded
(no menus, no fingerprints) and passive as soon as the last deviation
is behind.  This module times that shape on the Section 2.2 hunt
(faulty-ids at n=3, constant latency, drop-in-flight).
"""

from __future__ import annotations

from repro.explore import ScheduleExecutor, explore_spec

REPLAYS = 30


def _replays() -> int:
    executor = ScheduleExecutor(explore_spec("faulty"))
    for _ in range(REPLAYS):
        record = executor.run((), menus=False, fingerprints=False)
        assert not record.diverged
    return REPLAYS


def test_explore_replay_schedules_per_sec(benchmark):
    schedules = benchmark(_replays)
    benchmark.extra_info["schedules_per_sec"] = round(
        schedules / benchmark.stats.stats.mean, 1
    )
