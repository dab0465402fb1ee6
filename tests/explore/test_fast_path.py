"""Stretch equivalence: draining free steps changes nothing.

The explorer's scheduler leaves every step it need not look at free
(:meth:`~repro.explore.scheduler.ExploreScheduler.free_steps`), and the
engine drains those stretches on the store's plain loop (see
:mod:`repro.sim.engine`).  Pure performance — every observable (traces,
search verdicts, pruning counts, repro strings, menus, fingerprints)
must be **bit-identical** to a scheduler consulted at every step.
These tests pin that against :class:`EveryStep`, an explorer scheduler
that never leaves a step free.

:class:`EveryStep` also keeps the reference for the derived
deferrability rule: the set of frames an event has fired beside, kept
the way ``decide`` once kept it, checked against ``_deferrable`` at
every step.  It learns which events are frame deliveries from the
network side (an :class:`~tests.helpers.EngineTap` on the network), not
from the explorer's own reading of the heap entries.
"""

from dataclasses import replace

import pytest

from repro import CrashSchedule, StackSpec, SymmetricWorkload, build_system
from repro.explore import executor as executor_mod
from repro.explore import explore_spec, registry_explore_specs, replay
from repro.explore.executor import ScheduleExecutor
from repro.explore.scheduler import ExploreScheduler, parse_deviations
from repro.explore.strategies import run_strategy
from repro.sim.engine import FIRE, Scheduler
from repro.sim.trace import Trace
from tests.helpers import DecidesAt, EngineTap, trace_fingerprint


class EveryStep(ExploreScheduler):
    """Consulted at every step, and checks deferrability as it goes.

    ``seen`` holds every frame delivery that was in a ready set when an
    event of it fired (strong references: a freed record's address
    could be reused by a later frame).  A data frame is deferrable iff
    it is not in there — at every step, ``_deferrable`` must agree.
    """

    def __init__(self, system, *args, **kwargs):
        super().__init__(system, *args, **kwargs)
        self.deliveries = EngineTap(system.network)
        self.seen = set()

    def free_steps(self):
        return 0

    def decide(self, now, ready):
        frames = [
            (self.deliveries.args_of(record) or (None,))[0]
            for record in ready
        ]
        expected = tuple(
            i for i, (record, frame) in enumerate(zip(ready, frames))
            if frame is not None
            and not frame.control
            and record not in self.seen
        )
        assert self._deferrable(ready) == expected, (self.steps, expected)
        op, index = super().decide(now, ready)
        if op == FIRE:
            self.seen.update(
                record for record, frame in zip(ready, frames)
                if frame is not None
            )
        return op, index


@pytest.fixture
def every_step(monkeypatch):
    """Run the executor's schedules under :class:`EveryStep`."""
    monkeypatch.setattr(executor_mod, "ExploreScheduler", EveryStep)


STACK = dict(
    n=3, abcast="indirect", consensus="ct-indirect", rb="sender",
    network="constant", constant_latency=3e-4, seed=5,
)


def _run_traced(scheduler: Scheduler | None) -> str:
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


class TestGoldenTracesUnderScheduler:
    def test_every_run_path_gives_the_uncontrolled_trace(self):
        uncontrolled = _run_traced(None)
        assert _run_traced(Scheduler()) == uncontrolled  # every step
        assert _run_traced(DecidesAt()) == uncontrolled  # one stretch
        stretches = DecidesAt(0, 1, 100, 101, 102, 400)
        assert _run_traced(stretches) == uncontrolled
        assert stretches.consulted == [0, 1, 100, 101, 102, 400]


def _search(strategy: str):
    spec = explore_spec(
        "faulty", budget=120, stop_after=0, strategy=strategy,
    )
    return spec, run_strategy(spec)


def _summary(result):
    return (
        result.schedules,
        result.pruned,
        result.exhausted,
        [(v.prop, v.repro, v.steps) for v in result.violations],
    )


class TestSearchEquivalence:
    @pytest.mark.parametrize(
        "strategy", ["delay-bounded", "dfs", "random-walk"]
    )
    def test_verdicts_identical_to_every_step(self, strategy, monkeypatch):
        _, shipped = _search(strategy)
        monkeypatch.setattr(executor_mod, "ExploreScheduler", EveryStep)
        _, reference = _search(strategy)
        assert _summary(shipped) == _summary(reference)

    def test_section22_repro_rediscovered_both_ways(self, monkeypatch):
        spec, shipped = _search("delay-bounded")
        _, fast_record = replay(spec, "5:c2")
        monkeypatch.setattr(executor_mod, "ExploreScheduler", EveryStep)
        _, reference = _search("delay-bounded")
        repros = {v.repro for v in shipped.violations}
        assert repros == {v.repro for v in reference.violations}
        assert "5:c2" in repros, (
            "the crash-the-sender counterexample must surface with its "
            "canonical repro string"
        )
        # And the shared repro replays to the same verdict either way.
        _, slow_record = replay(spec, "5:c2")
        assert fast_record.violation is not None
        assert fast_record.violation == slow_record.violation
        assert fast_record.steps == slow_record.steps
        assert fast_record.events == slow_record.events

    def test_menus_and_fingerprints_identical_to_every_step(self, monkeypatch):
        executor = ScheduleExecutor(explore_spec("faulty"))
        shipped = executor.run((), menus=True)
        monkeypatch.setattr(executor_mod, "ExploreScheduler", EveryStep)
        reference = executor.run((), menus=True)
        assert shipped == reference


#: Schedules with each kind of deviation, alone and chained (the
#: section 2.2 counterexample with and without a deferred copy among
#: them).  Step 8 fires alone an event involving p2 and p3, so a crash
#: at step 9 is placed by what step 8 left.  The last three carry a
#: deviation that cannot apply and is skipped.
SCHEDULES = (
    "", "5:c2", "2:d0", "2:d0,3:d0,4:d3", "2:d0,5:c2", "3:f1", "9:c3",
    "2:d0,3:f2,7:c1", "2:d7", "9:c1",
)


class TestStretches:
    """Between the steps the explorer's scheduler looks at, the engine
    drains; the steps it did not see are reported back."""

    @pytest.mark.parametrize("defer_delay", [5e-3, 5e-2])
    @pytest.mark.parametrize("repro", SCHEDULES)
    def test_steps_events_drained_identical_to_every_step(
        self, repro, defer_delay, monkeypatch
    ):
        spec = explore_spec("faulty", defer_delay=defer_delay)
        executor = ScheduleExecutor(spec)
        schedule = parse_deviations(repro)
        window = (schedule[-1].step + 1 if schedule else 0, lambda fp: True)
        shipped = [
            executor.run(schedule, **kwargs)
            for kwargs in (dict(), dict(menus=False), dict(window=window))
        ]
        monkeypatch.setattr(executor_mod, "ExploreScheduler", EveryStep)
        # Every step recorded: one menu per step.
        eager = executor.run(schedule)
        assert len(eager.menus) == eager.steps
        assert shipped[0] == eager
        for record in shipped[1:]:
            # Same run in every field but the menus.
            assert replace(record, menus=()) == replace(eager, menus=())

    def test_stretches_skip_the_consultations(self, monkeypatch):
        consulted = []
        original = ExploreScheduler.decide

        def counting_decide(self, now, ready):
            consulted.append(self.steps)
            return original(self, now, ready)

        monkeypatch.setattr(ExploreScheduler, "decide", counting_decide)
        executor = ScheduleExecutor(explore_spec("faulty"))
        record = executor.run(parse_deviations("5:c2"), menus=False)
        # Step 4 notes the event that fires before the crash and step 5
        # crashes p2; the engine drains every other step.
        assert consulted == [4, 5]
        assert record.steps > 6
        assert record.violation is not None

    def test_derived_deferrability_matches_the_seen_set(self, every_step):
        """The registry's n = 3 matrix at a small budget, every step of
        every schedule checked by :class:`EveryStep`."""
        specs = registry_explore_specs(n=3, budget=20, stop_after=0)
        assert len(specs) == 15
        for spec in specs:
            assert run_strategy(spec).schedules == 20, spec.label
