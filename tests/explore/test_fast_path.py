"""Fast-path equivalence: the batched controlled loop changes nothing.

The engine's controlled loop grew two fast paths (see
:mod:`repro.sim.engine`): a passive scheduler (``Scheduler.passive`` —
the base scheduler always, the explorer's once it is past its last
deviation with nothing left to record) hands the rest of the run to the
storage's own drain loop, and singleton ready sets with no applicable
deviation fire without consulting the scheduler
(``Scheduler.wants``).  Both are pure performance — every observable
(traces, search verdicts, pruning counts, repro strings) must be
**bit-identical** with the fast path disabled.  These tests pin that by
running the same scenarios with ``CONTROLLED_FAST_PATH`` toggled.
"""

from dataclasses import replace

import pytest

import repro.sim.engine as engine_mod
from repro import CrashSchedule, StackSpec, SymmetricWorkload, build_system
from repro.explore import explore_spec, replay
from repro.explore.executor import ScheduleExecutor
from repro.explore.scheduler import ExploreScheduler, parse_deviations
from repro.explore.strategies import run_strategy
from repro.sim.engine import Scheduler
from repro.sim.trace import Trace
from tests.helpers import trace_fingerprint

STACK = dict(
    n=3, abcast="indirect", consensus="ct-indirect", rb="sender",
    network="constant", constant_latency=3e-4, seed=5,
)


def _run_traced(scheduler: Scheduler | None, fast: bool, monkeypatch) -> str:
    monkeypatch.setattr(engine_mod, "CONTROLLED_FAST_PATH", fast)
    system = build_system(
        StackSpec(**STACK), CrashSchedule.single(2, 0.1), trace=Trace()
    )
    if scheduler is not None:
        system.engine.install_scheduler(scheduler)
    SymmetricWorkload(
        system, throughput=150.0, payload_size=32, duration=0.2,
    ).install()
    system.run(until=1.5, max_events=5_000_000)
    return trace_fingerprint(system.trace)


class _Consulted(Scheduler):
    """Overrides ``decide`` (to the default choice): never fast-pathed."""

    def decide(self, time, ready):
        return super().decide(time, ready)


class TestGoldenTracesUnderScheduler:
    def test_default_scheduler_trace_identical_fast_on_off(self, monkeypatch):
        """Pure-default install (no migration) == forced controlled loop."""
        free = _run_traced(None, True, monkeypatch)
        fast = _run_traced(Scheduler(), True, monkeypatch)
        slow = _run_traced(Scheduler(), False, monkeypatch)
        consulted = _run_traced(_Consulted(), True, monkeypatch)
        assert free == fast == slow == consulted

    def test_batched_singleton_steps_change_nothing(self, monkeypatch):
        """A consulted scheduler under the singleton fast path matches a
        per-event consultation with the fast path compiled out."""
        fast = _run_traced(_Consulted(), True, monkeypatch)
        slow = _run_traced(_Consulted(), False, monkeypatch)
        assert fast == slow


def _search(strategy: str, fast: bool, monkeypatch):
    monkeypatch.setattr(engine_mod, "CONTROLLED_FAST_PATH", fast)
    spec = explore_spec(
        "faulty", budget=120, stop_after=0, strategy=strategy,
    )
    result = run_strategy(spec)
    return spec, result


class TestSearchEquivalence:
    @pytest.mark.parametrize(
        "strategy", ["delay-bounded", "dfs", "random-walk"]
    )
    def test_verdicts_identical_fast_on_off(self, strategy, monkeypatch):
        _, on = _search(strategy, True, monkeypatch)
        _, off = _search(strategy, False, monkeypatch)
        assert on.schedules == off.schedules
        assert on.pruned == off.pruned
        assert on.exhausted == off.exhausted
        assert [
            (v.prop, v.repro, v.steps) for v in on.violations
        ] == [
            (v.prop, v.repro, v.steps) for v in off.violations
        ]

    def test_section22_repro_rediscovered_both_ways(self, monkeypatch):
        spec, on = _search("delay-bounded", True, monkeypatch)
        _, off = _search("delay-bounded", False, monkeypatch)
        repros = {v.repro for v in on.violations}
        assert repros == {v.repro for v in off.violations}
        assert "5:c2" in repros, (
            "the crash-the-sender counterexample must surface with its "
            "canonical repro string"
        )
        # And the shared repro replays to the same verdict either way.
        monkeypatch.setattr(engine_mod, "CONTROLLED_FAST_PATH", True)
        _, fast_record = replay(spec, "5:c2")
        monkeypatch.setattr(engine_mod, "CONTROLLED_FAST_PATH", False)
        _, slow_record = replay(spec, "5:c2")
        assert fast_record.violation is not None
        assert slow_record.violation is not None
        assert fast_record.violation.prop == slow_record.violation.prop
        assert fast_record.steps == slow_record.steps
        assert fast_record.events == slow_record.events

    def test_menus_and_fingerprints_identical_fast_on_off(self, monkeypatch):
        spec = explore_spec("faulty")
        executor = ScheduleExecutor(spec)
        monkeypatch.setattr(engine_mod, "CONTROLLED_FAST_PATH", True)
        on = executor.run((), menus=True)
        monkeypatch.setattr(engine_mod, "CONTROLLED_FAST_PATH", False)
        off = executor.run((), menus=True)
        assert on.steps == off.steps
        assert on.events == off.events
        assert on.menus == off.menus


#: Schedules with each kind of deviation, alone and chained (the
#: section 2.2 counterexample with and without a deferred copy among
#: them).  Step 8 fires alone (the ``wants`` path) an event involving
#: p2 and p3, so a crash at step 9 is placed by what ``wants`` noted.
#: The last three carry a deviation that cannot apply and is skipped.
SCHEDULES = (
    "", "5:c2", "2:d0", "2:d0,3:d0,4:d3", "2:d0,5:c2", "3:f1", "9:c3",
    "2:d0,3:f2,7:c1", "2:d7", "9:c1",
)


class TestPassiveHandOver:
    """Once the explorer's scheduler is passive the engine stops
    consulting it; the steps it would have counted are reported back."""

    @pytest.mark.parametrize("defer_delay", [5e-3, None])
    @pytest.mark.parametrize("repro", SCHEDULES)
    def test_steps_events_drained_identical_fast_on_off(
        self, repro, defer_delay, monkeypatch
    ):
        spec = explore_spec("faulty", defer_delay=defer_delay)
        executor = ScheduleExecutor(spec)
        schedule = parse_deviations(repro)
        # Never passive: every step consulted and recorded.
        eager = executor.run(schedule)
        assert len(eager.menus) == eager.steps
        window = (schedule[-1].step + 1 if schedule else 0, lambda fp: True)
        for fast in (True, False):
            monkeypatch.setattr(engine_mod, "CONTROLLED_FAST_PATH", fast)
            for kwargs in (dict(menus=False), dict(window=window)):
                record = executor.run(schedule, **kwargs)
                # Same run in every field but the menus.
                assert replace(record, menus=()) == replace(
                    eager, menus=()
                ), (fast, kwargs)

    def test_hand_over_happens_and_skips_the_consultations(self, monkeypatch):
        consulted = []
        original = ExploreScheduler.wants

        def counting_wants(self, ready):
            consulted.append(self.steps)
            return original(self, ready)

        monkeypatch.setattr(ExploreScheduler, "wants", counting_wants)
        executor = ScheduleExecutor(explore_spec("faulty"))
        record = executor.run(parse_deviations("5:c2"), menus=False)
        # Passive from step 6 on: the drain fires the remaining events.
        assert consulted and max(consulted) <= 5
        assert record.steps > 6
        monkeypatch.setattr(engine_mod, "CONTROLLED_FAST_PATH", False)
        assert executor.run(
            parse_deviations("5:c2"), menus=False
        ).steps == record.steps

    def test_violation_steps_exact_through_the_hand_over(self, monkeypatch):
        spec = explore_spec("faulty")
        found = {}
        for fast in (True, False):
            monkeypatch.setattr(engine_mod, "CONTROLLED_FAST_PATH", fast)
            _, record = replay(spec, "5:c2")
            found[fast] = record.violation
        assert found[True] == found[False]
        assert found[True].steps == ScheduleExecutor(spec).run(
            parse_deviations("5:c2")
        ).steps
