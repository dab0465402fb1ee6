"""Tests for the discrete-event engine."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.sim.engine import (
    DEFER,
    FIRE,
    Engine,
    EventBudgetExceeded,
    Scheduler,
)
from tests.helpers import DecidesAt


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(0.3, fired.append, "c")
        engine.schedule(0.1, fired.append, "a")
        engine.schedule(0.2, fired.append, "b")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        engine = Engine()
        fired = []
        for tag in ("first", "second", "third"):
            engine.schedule(0.5, fired.append, tag)
        engine.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.5]

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(2.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.0]

    def test_nested_scheduling_from_callbacks(self):
        engine = Engine()
        fired = []

        def outer():
            fired.append(("outer", engine.now))
            engine.schedule(0.5, inner)

        def inner():
            fired.append(("inner", engine.now))

        engine.schedule(1.0, outer)
        engine.run()
        assert fired == [("outer", 1.0), ("inner", 1.5)]

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            Engine().schedule(-0.1, lambda: None)

    def test_rejects_scheduling_in_the_past(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(ConfigurationError):
            engine.schedule_at(0.5, lambda: None)


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(0.1, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule(0.1, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_ignores_cancelled(self):
        engine = Engine()
        engine.schedule(0.1, lambda: None)
        handle = engine.schedule(0.2, lambda: None)
        handle.cancel()
        assert engine.pending() == 1

    def test_pending_counter_tracks_execution(self):
        engine = Engine()
        for _ in range(3):
            engine.schedule(0.1, lambda: None)
        assert engine.pending() == 3
        engine.run(until=0.1)
        assert engine.pending() == 0

    def test_pending_counts_events_scheduled_from_callbacks(self):
        engine = Engine()
        engine.schedule(0.1, lambda: engine.schedule(0.1, lambda: None))
        engine.run(until=0.1)
        assert engine.pending() == 1

    def test_cancel_after_execution_is_a_noop(self):
        # Cancelling a handle whose callback already fired must neither
        # mark it cancelled nor corrupt the pending counter.
        engine = Engine()
        handle = engine.schedule(0.1, lambda: None)
        engine.schedule(0.5, lambda: None)
        engine.run(until=0.2)
        assert handle.finished
        handle.cancel()
        assert not handle.cancelled
        assert engine.pending() == 1

    def test_double_cancel_decrements_once(self):
        engine = Engine()
        engine.schedule(0.1, lambda: None)
        handle = engine.schedule(0.2, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.pending() == 1

    def test_default_scheduler_preserves_order_and_results(self):
        """The controlled loop with the base Scheduler replays the
        default loop's (time, seq) order exactly."""
        order_default: list[int] = []
        order_controlled: list[int] = []

        def drive(sink: list[int], controlled: bool) -> None:
            engine = Engine()
            if controlled:
                engine.install_scheduler(Scheduler())
            engine.schedule(0.2, sink.append, 3)
            engine.schedule(0.1, sink.append, 1)
            engine.schedule(0.1, sink.append, 2)
            cancelled = engine.schedule(0.15, sink.append, 99)
            cancelled.cancel()
            engine.run()

        drive(order_default, controlled=False)
        drive(order_controlled, controlled=True)
        assert order_default == order_controlled == [1, 2, 3]


class TestRunControl:
    def test_until_stops_and_advances_clock(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "early")
        engine.schedule(5.0, fired.append, "late")
        end = engine.run(until=2.0)
        assert fired == ["early"]
        assert end == 2.0
        assert engine.now == 2.0
        engine.run(until=6.0)
        assert fired == ["early", "late"]

    def test_until_with_empty_queue_advances_clock(self):
        engine = Engine()
        assert engine.run(until=3.0) == 3.0
        assert engine.now == 3.0

    def test_stop_when_predicate(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.schedule(0.1 * (i + 1), fired.append, i)
        engine.run(stop_when=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]

    def test_phased_run_stops_where_the_guarded_predicate_would(self):
        """Predicate-free to ``loaded``, then a second call under the
        predicate: the same stop event, clock and event count as one run
        whose predicate starts with ``now > loaded``."""

        def drive(run):
            engine = Engine()
            fired = []
            calls = []
            for i in range(10):
                engine.schedule(0.1 * (i + 1), fired.append, i)

            def done():
                calls.append(engine.now)
                return len(fired) >= 2

            end = run(engine, done)
            return end, engine.now, engine.events_executed, fired, calls

        def phased(engine, done):
            engine.run(until=0.55, max_events=100)
            return engine.run(until=2.0, max_events=100, stop_when=done)

        loaded = drive(phased)
        guarded = drive(
            lambda e, done: e.run(
                until=2.0, max_events=100,
                stop_when=lambda: e.now > 0.55 and done(),
            )
        )
        assert loaded == guarded
        assert loaded[3] == [0, 1, 2, 3, 4, 5]  # first event past 0.55
        assert len(loaded[4]) == 1  # the loaded phase never asked

    def test_phased_run_on_an_empty_queue_advances_to_the_horizon(self):
        engine = Engine()
        assert engine.run(until=1.0) == 1.0
        assert engine.run(until=3.0, stop_when=lambda: True) == 3.0

    def test_phased_run_shares_one_event_budget(self):
        def loop(engine):
            engine.schedule(0.001, loop, engine)

        for loaded_until in (0.0105, 10.0):  # blown in either phase
            engine = Engine()
            engine.schedule(0.0, loop, engine)
            with pytest.raises(RuntimeError, match="max_events=100 "):
                engine.run(until=loaded_until, max_events=100)
                engine.run(until=20.0, max_events=100,
                           stop_when=lambda: False)
            assert engine.events_executed == 100

    def test_max_events_guards_runaway(self):
        engine = Engine()

        def loop():
            engine.schedule(0.001, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(RuntimeError, match="max_events"):
            engine.run(max_events=100)

    def test_run_is_not_reentrant(self):
        engine = Engine()

        def recurse():
            engine.run()

        engine.schedule(0.1, recurse)
        with pytest.raises(RuntimeError, match="reentrant"):
            engine.run()

    def test_events_executed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(0.1, lambda: None)
        engine.run()
        assert engine.events_executed == 5


#: One scheduler factory per run path ``Engine.run`` can take.
RUN_PATHS = {
    "drain": lambda: None,
    "pure-default": Scheduler,  # consulted at every step
    "stretches": lambda: DecidesAt(2, 3, 40),
}


def spin(engine):
    """A livelock: forever one more event, 1 ms later."""
    engine.schedule(0.001, spin, engine)


def livelocked(path):
    engine = Engine()
    engine.install_scheduler(RUN_PATHS[path]())
    engine.schedule(0.0, spin, engine)
    engine.schedule(5.0, lambda: None)
    return engine


class TestHorizon:
    @pytest.mark.parametrize("path", sorted(RUN_PATHS))
    def test_an_earlier_horizon_is_refused_not_rewound_to(self, path):
        engine = Engine()
        engine.install_scheduler(RUN_PATHS[path]())
        fired = []
        engine.schedule(6.0, fired.append, "late")
        assert engine.run(until=5.0) == 5.0
        with pytest.raises(ConfigurationError, match="current time is 5.0"):
            engine.run(until=3.0)
        assert engine.now == 5.0
        with pytest.raises(ConfigurationError, match="current time is 5.0"):
            engine.schedule_at(4.0, fired.append, "past")
        assert engine.run(until=5.0) == 5.0  # until == now stays legal
        engine.run()
        assert fired == ["late"] and engine.now == 6.0


class TestStopWhen:
    # For the "stretches" path: the last event of the first stretch, a
    # decided step, and an event inside the second stretch.
    @pytest.mark.parametrize("stop_after", [2, 3, 10])
    @pytest.mark.parametrize("path", sorted(RUN_PATHS))
    def test_the_run_ends_on_the_first_event_it_holds_after(
        self, path, stop_after
    ):
        engine = Engine()
        engine.install_scheduler(RUN_PATHS[path]())
        fired = []
        for i in range(20):
            engine.schedule(i * 1e-3, fired.append, i)
        engine.run(stop_when=lambda: len(fired) == stop_after)
        assert fired == list(range(stop_after))
        assert engine.now == (stop_after - 1) * 1e-3
        engine.run()
        assert fired == list(range(20))


class TestEveryPathFiresEveryEvent:
    """Each run path fires each live event exactly once, in key order."""

    EVENTS = 600

    @pytest.mark.parametrize("path", sorted(RUN_PATHS))
    def test_entries_and_handles_fire_once_in_time_then_seq_order(self, path):
        engine = Engine()
        fired = []
        expected = []
        for i in range(self.EVENTS):
            # Fifty distinct times, so every time carries ties.
            when = (i % 50) * 1e-3
            if i % 2:
                engine.equeue.push_entry(when, fired.append, (i,))
                expected.append((when, i))
            else:
                handle = engine.schedule_at(when, fired.append, i)
                if i % 7 == 0:
                    handle.cancel()
                else:
                    expected.append((when, i))
        engine.install_scheduler(RUN_PATHS[path]())
        engine.run()
        assert fired == [i for _, i in sorted(expected)]
        assert engine.events_executed == len(expected)
        assert engine.pending() == 0

    def test_chains_rescheduled_from_callbacks_fire_exact_counts(self):
        engine = Engine()
        fired = 0

        def tick(depth: int) -> None:
            nonlocal fired
            fired += 1
            if depth > 0:
                engine.schedule(0.001, tick, depth - 1)

        roots = [engine.schedule(0.0005 * (i % 97), tick, 9)
                 for i in range(200)]
        for root in roots[::7]:
            root.cancel()
        engine.run()
        # 29 of the 200 roots are cancelled; every other one fires a
        # chain of ten.
        assert fired == engine.events_executed == (200 - 29) * 10
        assert engine.now == pytest.approx(0.0005 * 96 + 9 * 0.001)

    def test_rearmed_watchdogs_expire_only_after_the_last_heartbeat(self):
        processes, rounds = 32, 40
        timeout, interval = 0.060, 0.020
        engine = Engine()
        beats = [0] * processes
        expired = []
        watchdogs = [None] * processes

        def heartbeat(pid: int, remaining: int) -> None:
            beats[pid] += 1
            if watchdogs[pid] is not None:
                watchdogs[pid].cancel()
            watchdogs[pid] = engine.schedule(timeout, expire, pid)
            if remaining > 0:
                engine.schedule(interval, heartbeat, pid, remaining - 1)

        def expire(pid: int) -> None:
            expired.append(pid)

        for pid in range(processes):
            engine.schedule(interval * pid / processes, heartbeat, pid, rounds)
        engine.run()
        assert beats == [rounds + 1] * processes
        # Each re-arm cancelled the previous watchdog in time, so only
        # the final one per process fires, in heartbeat order.
        assert expired == list(range(processes))
        assert engine.pending() == 0


class TestLifetimeBudget:
    """``max_events`` caps ``events_executed``, however the run is cut."""

    @pytest.mark.parametrize("path", sorted(RUN_PATHS))
    def test_one_call_and_phases_raise_at_the_same_event(self, path):
        def outcome(phases):
            engine = livelocked(path)
            with pytest.raises(EventBudgetExceeded) as caught:
                for until in phases:
                    engine.run(until=until, max_events=100)
            return engine.events_executed, engine.now, str(caught.value)

        once = outcome([None])
        assert once[0] == 100
        assert outcome([0.0105, 0.05, 0.0505, None]) == once

    def test_a_stretch_reports_what_it_fired_up_to_the_overrun(self):
        engine = livelocked("stretches")
        scheduler = engine.scheduler
        with pytest.raises(EventBudgetExceeded):
            engine.run(max_events=100)
        assert scheduler.consulted == [2, 3, 40]
        assert scheduler.step == engine.events_executed == 100

    def test_an_overspent_engine_raises_after_one_more_event(self):
        engine = livelocked("drain")
        engine.run(until=0.0495)
        assert engine.events_executed == 50
        with pytest.raises(EventBudgetExceeded, match="max_events=10 "):
            engine.run(max_events=10)
        assert engine.events_executed == 51


class TestOverrunDiagnosis:
    @pytest.mark.parametrize("path", sorted(RUN_PATHS))
    def test_names_the_looping_callback_and_the_oldest_due_time(self, path):
        engine = livelocked(path)
        with pytest.raises(EventBudgetExceeded) as caught:
            engine.run(max_events=100)
        message = str(caught.value)
        assert message.startswith(
            "simulation exceeded max_events=100 at t=0.099000s"
        )
        # Pending: the spinner's next step and the far event.
        assert "2 pending, oldest due at t=0.100000s" in message
        assert "by callback: spin x1, " in message
        assert "<lambda> x1" in message

    def test_groups_by_callback_most_frequent_first(self):
        engine = Engine()
        engine.schedule(0.0, spin, engine)
        for _ in range(3):
            engine.schedule(7.0, print)
        with pytest.raises(EventBudgetExceeded) as caught:
            engine.run(max_events=10)
        assert "by callback: print x3, spin x1" in str(caught.value)

    def test_names_a_deferred_event_at_its_new_due_time(self):
        class HoldFirst(Scheduler):
            defer_delay = 0.0025
            held = False

            def decide(self, now, ready):
                if not self.held:
                    self.held = True
                    return (DEFER, 0)
                return (FIRE, 0)

        engine = Engine()
        engine.install_scheduler(HoldFirst())
        engine.schedule(0.0, print)  # re-keyed to t=0.0025
        engine.schedule(0.002, spin, engine)
        with pytest.raises(EventBudgetExceeded) as caught:
            engine.run(max_events=1)
        message = str(caught.value)
        assert "2 pending, oldest due at t=0.002500s" in message
        assert "print x1" in message and "spin x1" in message

    def test_an_empty_queue_says_so(self):
        engine = Engine()
        engine.schedule(0.0, lambda: None)
        with pytest.raises(EventBudgetExceeded, match="no event pending"):
            engine.run(max_events=1)
