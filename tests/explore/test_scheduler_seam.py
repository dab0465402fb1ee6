"""The engine's decision-point seam: default fidelity, defer, crash.

The golden-trace suite (``tests/stack/test_golden_traces.py``) pins the
*absence* of the seam — no scheduler, bit-identical traces.  These
tests pin its presence: the base scheduler replays the default order
exactly, deviations do what their contract says, and deferred events
survive (or die) correctly.
"""

import pytest

from repro import CrashSchedule, StackSpec, build_system
from repro.core.exceptions import ConfigurationError
from repro.explore.scheduler import (
    Deviation,
    ExploreScheduler,
    event_of,
    format_deviations,
    parse_deviations,
)
from repro.sim.engine import DEFER, Engine, Scheduler
from repro.sim.equeue import FN, SEQ
from tests.helpers import EngineTap, trace_fingerprint


def small_system(**overrides):
    kwargs = dict(
        n=3,
        abcast="faulty-ids",
        consensus="ct",
        rb="sender",
        network="constant",
        drop_in_flight_on_crash=True,
    )
    kwargs.update(overrides)
    return build_system(StackSpec(**kwargs), CrashSchedule.none())


def drive(system, sends=((1, 16), (2, 16))):
    from repro.core.message import make_payload

    for pid, size in sends:
        system.processes[pid].schedule_at(
            0.0, lambda p=pid, s=size: system.abcasts[p].abroadcast(
                make_payload(s)
            )
        )
    system.engine.run(until=1.0, max_events=100_000)
    return trace_fingerprint(system.trace)


class TestDefaultSchedulerFidelity:
    def test_base_scheduler_reproduces_the_uncontrolled_trace(self):
        baseline = drive(small_system())
        controlled = small_system()
        controlled.engine.install_scheduler(Scheduler())
        assert drive(controlled) == baseline

    def test_explore_scheduler_with_no_deviations_is_the_default_order(self):
        baseline = drive(small_system())
        system = small_system()
        system.engine.install_scheduler(
            ExploreScheduler(system, (), max_crashes=1)
        )
        assert drive(system) == baseline

    def test_install_while_running_rejected(self):
        engine = Engine()
        engine.schedule(0.0, engine.install_scheduler, Scheduler())
        with pytest.raises(ConfigurationError):
            engine.run()


class DeferFirst(Scheduler):
    """Defers the first event of the first tie group, ``defer_delay``
    (0.1 s) later; fires everything else in the default order."""

    defer_delay = 0.1

    def __init__(self):
        self.done = False

    def decide(self, now, ready):
        if not self.done and len(ready) > 1:
            self.done = True
            return (DEFER, 0)
        return ("fire", 0)


class TestEngineDeferMechanics:
    def test_deferred_event_fires_behind_what_is_due_at_its_new_time(self):
        order = []
        engine = Engine()
        engine.install_scheduler(DeferFirst())
        a = engine.schedule(0.1, order.append, "a")
        engine.schedule(0.1, order.append, "b")
        engine.schedule(0.2, order.append, "c")
        engine.run()
        assert order == ["b", "c", "a"]
        assert a.time == pytest.approx(0.2)

    def test_a_defer_past_the_horizon_fires_in_a_later_run(self):
        order = []
        scheduler = DeferFirst()
        scheduler.defer_delay = 2.0
        engine = Engine()
        engine.install_scheduler(scheduler)
        engine.schedule(0.1, order.append, "a")
        engine.schedule(0.1, order.append, "b")
        engine.schedule(5.0, order.append, "late")
        final = engine.run(until=1.0)
        assert order == ["b"]
        assert final == 1.0
        assert engine.pending() == 2  # the deferred "a" and "late"
        engine.run()
        assert order == ["b", "a", "late"]

    def test_cancelled_deferred_event_never_fires(self):
        order = []
        engine = Engine()
        engine.install_scheduler(DeferFirst())
        victim = engine.schedule(0.1, order.append, "victim")
        engine.schedule(0.1, order.append, "b")
        engine.schedule(0.15, victim.cancel)  # before its new time, 0.2
        engine.run()
        assert order == ["b"]
        assert victim.cancelled and not victim.finished

    def test_pending_counts_deferred_events(self):
        engine = Engine()
        engine.install_scheduler(DeferFirst())
        engine.schedule(0.1, lambda: None)
        engine.schedule(0.1, lambda: None)
        assert engine.pending() == 2
        engine.run()
        assert engine.pending() == 0


class TestEventKinds:
    def test_event_of_reads_deliveries_timers_and_crashes(self):
        """What the explorer reads off each ready entry agrees with what
        the network and the processes say they scheduled, and with the
        crash schedule."""
        seen = {"frame": 0, "timer": 0, "crash": 0}
        system = build_system(
            StackSpec(n=3, abcast="faulty-ids", consensus="ct",
                      network="constant"),
            CrashSchedule.single(3, 0.05),
        )
        network = EngineTap(system.network)
        timers = {
            pid: EngineTap(process)
            for pid, process in system.processes.items()
        }
        crash = system.processes[3].crash
        tapped_from = system.engine.equeue.seq

        class Inspect(Scheduler):
            def decide(self, now, ready):
                for record in ready:
                    kind = event_of(record)
                    if record[FN] == crash:
                        assert kind == ("crash", 3)
                        seen["crash"] += 1
                    elif record[SEQ] <= tapped_from:
                        continue  # wired before the taps: origin unknown
                    elif network.args_of(record) is not None:
                        assert kind is network.args_of(record)[0]
                        seen["frame"] += 1
                    else:
                        owners = [
                            pid for pid, tap in timers.items()
                            if tap.args_of(record) is not None
                        ]
                        if owners:
                            assert kind == ("timer", owners[0])
                            seen["timer"] += 1
                        else:
                            assert kind is None
                return ("fire", 0)

        system.engine.install_scheduler(Inspect())
        drive(system)
        assert seen["frame"] > 0
        assert seen["timer"] > 0
        assert seen["crash"] == 1


class TestDeviationCodec:
    def test_round_trip(self):
        devs = (Deviation(4, "d", 1), Deviation(5, "d", 1), Deviation(23, "c", 2))
        assert parse_deviations(format_deviations(devs)) == devs
        assert format_deviations(()) == ""
        assert parse_deviations("") == ()
        assert parse_deviations(" 7:f2 ") == (Deviation(7, "f", 2),)

    def test_malformed_rejected(self):
        for bad in ("x", "1:z0", "1:d", "one:d0"):
            with pytest.raises(ConfigurationError):
                parse_deviations(bad)
        with pytest.raises(ConfigurationError):
            Deviation(1, "q", 0)

    def test_duplicate_steps_rejected(self):
        # One decision per step; a silent shadow would make the repro
        # string lie about the schedule it replays.
        with pytest.raises(ConfigurationError, match="same step"):
            parse_deviations("5:c2,5:d1")
        system = small_system()
        with pytest.raises(ConfigurationError, match="one step"):
            ExploreScheduler(
                system, (Deviation(5, "c", 2), Deviation(5, "d", 1)),
            )


class TestExploreSchedulerMenus:
    def test_menus_record_data_defers_and_gated_crashes(self):
        system = small_system()
        scheduler = ExploreScheduler(system, (), max_crashes=1)
        system.engine.install_scheduler(scheduler)
        drive(system)
        assert scheduler.steps == len(scheduler.menus) > 10
        deferrable = [m for m in scheduler.menus if m.deferrable]
        assert deferrable, "data frames must be deferrable somewhere"
        assert any(m.crashable for m in scheduler.menus)

    def test_zero_crash_budget_offers_no_crashes(self):
        system = small_system()
        scheduler = ExploreScheduler(system, (), max_crashes=0)
        system.engine.install_scheduler(scheduler)
        drive(system)
        assert all(not m.crashable for m in scheduler.menus)

    def test_inapplicable_deviation_is_skipped_not_fatal(self):
        system = small_system()
        scheduler = ExploreScheduler(
            system, (Deviation(0, "f", 99),), max_crashes=0
        )
        system.engine.install_scheduler(scheduler)
        baseline = drive(small_system())
        assert drive(system) == baseline
        assert scheduler.skipped and not scheduler.applied

    def test_crash_deviation_crashes_within_budget_only(self):
        system = small_system()
        scheduler = ExploreScheduler(
            system,
            (Deviation(0, "c", 1), Deviation(1, "c", 2)),
            max_crashes=1,
        )
        system.engine.install_scheduler(scheduler)
        drive(system)
        assert system.processes[1].crashed
        assert not system.processes[2].crashed
        assert len(scheduler.applied) == 1 and len(scheduler.skipped) == 1
