"""Tests for the process shell (crash semantics) and the RNG registry."""

from repro.core.events import CrashEvent
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace


def make_process(pid: int = 1):
    engine = Engine()
    trace = Trace()
    return SimProcess(pid, engine, trace), engine, trace


class TestSimProcess:
    def test_guarded_timer_fires_while_alive(self):
        process, engine, _ = make_process()
        fired = []
        process.schedule(0.1, fired.append, "tick")
        engine.run()
        assert fired == ["tick"]

    def test_crash_suppresses_pending_timers(self):
        process, engine, _ = make_process()
        fired = []
        process.schedule(1.0, fired.append, "tick")
        engine.schedule(0.5, process.crash)
        engine.run()
        assert fired == []

    def test_crash_records_trace_event(self):
        process, engine, trace = make_process(pid=3)
        engine.schedule(0.25, process.crash)
        engine.run()
        crash = trace.crashes()[3]
        assert isinstance(crash, CrashEvent)
        assert crash.time == 0.25

    def test_crash_is_idempotent(self):
        process, engine, trace = make_process()
        process.crash()
        process.crash()
        assert len(trace.events) == 1

    def test_crash_listeners_fire_once(self):
        process, _, _ = make_process()
        calls = []
        process.on_crash(lambda: calls.append(1))
        process.crash()
        process.crash()
        assert calls == [1]

    def test_schedule_at_absolute(self):
        process, engine, _ = make_process()
        fired = []
        process.schedule_at(0.7, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [0.7]


class TestRngRegistry:
    def test_streams_are_memoised(self):
        rngs = RngRegistry(seed=1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_streams_are_independent(self):
        """Draining one stream must not perturb another."""
        first = RngRegistry(seed=1)
        baseline = [first.stream("b").random() for _ in range(5)]

        second = RngRegistry(seed=1)
        for _ in range(1000):
            second.stream("a").random()  # heavy use of an unrelated stream
        assert [second.stream("b").random() for _ in range(5)] == baseline

    def test_same_seed_same_sequence(self):
        a = RngRegistry(seed=42).stream("x")
        b = RngRegistry(seed=42).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("x")
        b = RngRegistry(seed=2).stream("x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        rngs = RngRegistry(seed=1)
        assert rngs.stream("x").random() != rngs.stream("y").random()

    def test_fork_is_deterministic_and_distinct(self):
        base = RngRegistry(seed=5)
        fork_a = base.fork("rep1")
        fork_b = RngRegistry(seed=5).fork("rep1")
        assert fork_a.stream("x").random() == fork_b.stream("x").random()
        assert (
            RngRegistry(seed=5).fork("rep1").stream("x").random()
            != RngRegistry(seed=5).fork("rep2").stream("x").random()
        )
