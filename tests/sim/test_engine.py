"""Tests for the discrete-event engine."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(0.3, fired.append, "c")
        engine.schedule(0.1, fired.append, "a")
        engine.schedule(0.2, fired.append, "b")
        engine.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        engine = Engine()
        fired = []
        for tag in ("first", "second", "third"):
            engine.schedule(0.5, fired.append, tag)
        engine.run_until_idle()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(1.5, lambda: seen.append(engine.now))
        engine.run_until_idle()
        assert seen == [1.5]

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(2.0, lambda: seen.append(engine.now))
        engine.run_until_idle()
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
        engine.run_until_idle()
        assert fired == [("outer", 1.0), ("inner", 1.5)]

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            Engine().schedule(-0.1, lambda: None)

    def test_rejects_scheduling_in_the_past(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run_until_idle()
        with pytest.raises(ConfigurationError):
            engine.schedule_at(0.5, lambda: None)


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(0.1, fired.append, "x")
        handle.cancel()
        engine.run_until_idle()
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

    def test_run_loaded_stops_where_the_guarded_predicate_would(self):
        """Predicate-free to ``loaded_until``, then under the predicate:
        the same stop event, clock and event count as one run whose
        predicate starts with ``now > loaded_until``."""

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

        loaded = drive(lambda e, done: e.run_loaded(0.55, 2.0, 100, done))
        guarded = drive(
            lambda e, done: e.run(
                until=2.0, max_events=100,
                stop_when=lambda: e.now > 0.55 and done(),
            )
        )
        assert loaded == guarded
        assert loaded[3] == [0, 1, 2, 3, 4, 5]  # first event past 0.55
        assert len(loaded[4]) == 1  # the loaded phase never asked

    def test_run_loaded_on_an_empty_queue_advances_to_the_horizon(self):
        engine = Engine()
        assert engine.run_loaded(1.0, 3.0, stop_when=lambda: True) == 3.0

    def test_run_loaded_shares_one_event_budget(self):
        def loop(engine):
            engine.schedule(0.001, loop, engine)

        for loaded_until in (0.0105, 10.0):  # blown in either phase
            engine = Engine()
            engine.schedule(0.0, loop, engine)
            with pytest.raises(RuntimeError, match="max_events=100 "):
                engine.run_loaded(loaded_until, 20.0, 100, lambda: False)
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
            engine.run_until_idle()

        engine.schedule(0.1, recurse)
        with pytest.raises(RuntimeError, match="reentrant"):
            engine.run_until_idle()

    def test_events_executed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(0.1, lambda: None)
        engine.run_until_idle()
        assert engine.events_executed == 5
