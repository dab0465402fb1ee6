"""Tests for the FIFO resource model (CPUs, shared medium)."""

import pytest

from repro.sim.engine import Engine
from repro.sim.resources import FifoResource


class TestFifoResource:
    def test_idle_resource_serves_immediately(self):
        engine = Engine()
        cpu = FifoResource(engine, "cpu")
        done = []
        cpu.occupy(0.5, lambda: done.append(engine.now))
        engine.run()
        assert done == [0.5]

    def test_jobs_queue_fifo(self):
        engine = Engine()
        cpu = FifoResource(engine, "cpu")
        done = []
        cpu.occupy(0.5, lambda: done.append(("a", engine.now)))
        cpu.occupy(0.25, lambda: done.append(("b", engine.now)))
        engine.run()
        # b waits for a even though it is shorter: non-preemptive FIFO.
        assert done == [("a", 0.5), ("b", 0.75)]

    def test_queueing_after_idle_gap(self):
        engine = Engine()
        cpu = FifoResource(engine, "cpu")
        done = []
        cpu.occupy(0.1, lambda: done.append(engine.now))
        engine.run()  # now = 0.1
        engine.schedule(0.9, lambda: cpu.occupy(0.2, lambda: done.append(engine.now)))
        engine.run()
        # Second job starts fresh at t=1.0 (no phantom backlog).
        assert done == [0.1, pytest.approx(1.2)]

    def test_zero_duration_respects_fifo(self):
        engine = Engine()
        cpu = FifoResource(engine, "cpu")
        done = []
        cpu.occupy(0.5, lambda: done.append("long"))
        cpu.occupy(0.0, lambda: done.append("instant"))
        engine.run()
        assert done == ["long", "instant"]

    def test_occupy_returns_completion_time(self):
        engine = Engine()
        cpu = FifoResource(engine, "cpu")
        assert cpu.occupy(0.3) == pytest.approx(0.3)
        assert cpu.occupy(0.2) == pytest.approx(0.5)

    def test_rejects_negative_duration(self):
        engine = Engine()
        with pytest.raises(ValueError):
            FifoResource(engine, "cpu").occupy(-1.0)

    def test_backlog(self):
        engine = Engine()
        cpu = FifoResource(engine, "cpu")
        assert cpu.backlog() == 0.0
        cpu.occupy(2.0)
        assert cpu.backlog() == pytest.approx(2.0)

    def test_utilisation(self):
        engine = Engine()
        cpu = FifoResource(engine, "cpu")
        cpu.occupy(0.5, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert cpu.utilisation() == pytest.approx(0.25)
        assert cpu.utilisation(elapsed=1.0) == pytest.approx(0.5)

    def test_utilisation_of_fresh_resource_is_zero(self):
        engine = Engine()
        assert FifoResource(engine, "cpu").utilisation() == 0.0

    def test_stats_counters(self):
        engine = Engine()
        cpu = FifoResource(engine, "cpu")
        cpu.occupy(0.1)
        cpu.occupy(0.2)
        engine.run()
        assert cpu.jobs_served == 2
        assert cpu.busy_time == pytest.approx(0.3)


class TestStage:
    """``stage`` is ``occupy`` with a callback, in one call."""

    def test_stage_matches_occupy_job_for_job(self):
        jobs = [(0.3, 0.0), (0.1, 0.05), (0.0, 0.2), (0.25, 1.0)]

        def drive(submit):
            engine = Engine()
            cpu = FifoResource(engine, "cpu")
            done = []
            for i, (duration, at) in enumerate(jobs):
                engine.schedule_at(
                    at, lambda d=duration, i=i: done.append(
                        (i, submit(cpu, d, lambda i=i: done.append(
                            ("fired", i, engine.now)
                        )))
                    )
                )
            engine.run()
            return done, cpu.busy_time, cpu.jobs_served, engine.equeue.seq

        staged = drive(lambda cpu, d, then: cpu.stage(d, then, ()))
        occupied = drive(lambda cpu, d, then: cpu.occupy(d, then))
        assert staged == occupied

    def test_completion_is_a_bare_entry(self):
        engine = Engine()
        cpu = FifoResource(engine, "cpu.p1")
        assert cpu.stage(0.5, print, ("x",)) == 0.5
        (entry,) = engine.equeue.entries
        assert type(entry) is list and entry[:4] == [0.5, 1, print, ("x",)]
