"""Teardown: a finished run leaves no cyclic garbage behind.

A wired system is cyclic by design — pending events hold the layers'
bound methods, lower layers hold callbacks into upper ones, the
transports' handler tables and the processes' crash listeners point
back up the stack — so a run dropped without
:meth:`~repro.stack.builder.System.close` waits for a full cyclic-GC
pass to be freed, and a sweep of short runs piles dead points up.
Every runner closes what it builds:

* ``TestZeroGarbage`` runs each runner with the cyclic collector
  disabled and requires ``gc.collect()`` to find nothing afterwards —
  refcounting alone freed the run;
* ``TestSweepMemory`` holds a sweep's tracemalloc peak to its largest
  point's, the property the zero-garbage guard exists for;
* ``TestClosedSystem`` pins what ``close()`` keeps readable and that a
  closed engine refuses to run.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.analysis import traffic_breakdown
from repro.analysis.rounds import round_statistics
from repro.core.exceptions import ConfigurationError
from repro.core.message import make_payload
from repro.failure.crash import CrashSchedule
from repro.explore import explore_spec
from repro.explore.executor import ScheduleExecutor
from repro.explore.scheduler import parse_deviations
from repro.harness import SweepSpec, run_suite
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.net.faults import DuplicationRule, LossRule
from repro.net.setups import SETUP_1
from repro.net.topology import Topology
from repro.shard.service import ShardSpec, build_sharded_system
from repro.shard.sweep import ShardSweepSpec, run_shard_point
from repro.sim.engine import EventBudgetExceeded
from repro.stack.builder import StackSpec, build_system
from repro.stack.layers import compatible_combinations
from repro.workload.generators import SymmetricWorkload


def garbage_after(fn) -> int:
    """Objects the cyclic collector finds once ``fn()`` ran without it."""
    gc.collect()
    gc.disable()
    try:
        fn()
    finally:
        found = gc.collect()
        gc.enable()
    return found


def point(stack: StackSpec, **overrides) -> ExperimentSpec:
    fields = dict(
        name="teardown", stack=stack, throughput=150.0, payload=64,
        duration=0.15, warmup=0.05, drain=0.3,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


#: Every registry-composable n = 3 stack on both network models, plus a
#: two-segment topology and a fault-rule pipeline.
STACKS = {
    f"{abcast}/{consensus}/{rb}/{fd}/{network}": StackSpec(
        n=3, abcast=abcast, consensus=consensus, rb=rb, fd=fd,
        network=network, seed=3,
    )
    for abcast, consensus, rb, fd in compatible_combinations()
    for network in ("contention", "constant")
}
STACKS["indirect/two-segment"] = StackSpec(
    n=3, topology=Topology.split((1, 2), (3,), router_latency=1e-3), seed=3,
)
STACKS["indirect/fault-rules"] = StackSpec(
    n=3, network="constant", seed=3,
    faults=(
        LossRule(kind_prefix="rb", probability=0.2),
        DuplicationRule(kind_prefix="cti", probability=0.5),
    ),
)


class TestZeroGarbage:
    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_run_experiment(self, name):
        results = []
        assert garbage_after(
            lambda: results.append(run_experiment(point(STACKS[name])))
        ) == 0
        assert results[0].sent > 0

    def test_a_point_that_raises_is_closed_too(self):
        def blown() -> None:
            try:
                run_experiment(point(StackSpec(n=3), max_events=500))
            except EventBudgetExceeded:
                return
            raise AssertionError("the event budget should have blown")

        assert garbage_after(blown) == 0

    @pytest.mark.parametrize("admission", ["shed", "delay"])
    def test_run_shard_point(self, admission):
        (shard_point,) = ShardSweepSpec(
            name="teardown", stack=StackSpec(n=3), shards=(2,),
            offered_loads=(3000.0,), duration=0.2, drain=0.3,
            router_capacity=8, admission=admission, window=0.05,
        ).points()
        rows = []
        assert garbage_after(
            lambda: rows.append(run_shard_point(shard_point))
        ) == 0
        if admission == "delay":
            assert sum(rows[0].column("shard.delayed")) > 0

    @pytest.mark.parametrize(
        "stack, repro", [("faulty", "4:d1,5:c2"), ("indirect", "5:c2")]
    )
    def test_schedule_executor(self, stack, repro):
        executor = ScheduleExecutor(explore_spec(stack, n=3))
        records = []

        def runs() -> None:
            records.append(executor.run())
            records.append(executor.run(parse_deviations(repro)))

        assert garbage_after(runs) == 0
        assert records[1].applied > 0


class TestSweepMemory:
    def test_sweep_peak_stays_near_its_largest_point(self, tmp_path):
        # Ten points of 100 messages each: 20 in the 0.1 s warmup at
        # 200 msg/s, then 80 measured.
        sweep = SweepSpec(
            name="memory",
            variants=(("indirect", StackSpec(n=3, params=SETUP_1)),),
            throughputs=(200.0,),
            payloads=tuple(range(100, 1100, 100)),
            target_messages=80,
            warmup=0.1,
            drain=0.5,
        )
        specs = sweep.experiments()
        assert len(specs) == 10
        assert all(s.safety_checks and s.trace_mode == "full" for s in specs)

        def peak(fn) -> int:
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        largest = max(peak(lambda s=s: run_experiment(s)) for s in specs)
        whole = peak(lambda: run_suite(
            sweep, processes=1, use_cache=False, cache_dir=tmp_path
        ))
        assert whole <= 1.5 * largest, (
            f"sweep peak {whole / 1e6:.1f} MB is {whole / largest:.2f}x "
            f"its largest point's {largest / 1e6:.1f} MB"
        )


def finished_system():
    system = build_system(StackSpec(n=3, seed=1))
    SymmetricWorkload(
        system, throughput=200.0, payload_size=64, duration=0.1
    ).install()
    system.run(until=0.5)
    return system


class TestClosedSystem:
    def test_close_keeps_the_records_readable_and_is_idempotent(self):
        system = finished_system()
        events = len(system.trace)
        traffic = traffic_breakdown(system.network)
        now, executed = system.engine.now, system.engine.events_executed
        assert events > 0 and traffic.total_frames > 0
        system.close()
        system.close()
        assert len(system.trace) == events
        assert traffic_breakdown(system.network) == traffic
        assert system.network.frames_dropped == 0
        assert (system.engine.now, system.engine.events_executed) == (
            now, executed,
        )
        assert system.config.n == 3

    def test_round_statistics_read_the_same_after_close(self):
        """The round logs hold no reference into the wiring, so close()
        leaves them (and the decided instances' numbers) readable."""
        system = build_system(
            StackSpec(n=3, fd="heartbeat", seed=4), CrashSchedule.single(2, 0.1)
        )
        SymmetricWorkload(
            system, throughput=300.0, payload_size=64, duration=0.3,
        ).install()
        system.run(until=1.0)
        before = round_statistics(system)
        assert before.instances > 0 and before.decision_rounds.maximum > 1
        system.close()
        assert round_statistics(system) == before

    def test_a_closed_engine_refuses_to_run(self):
        system = finished_system()
        system.close()
        with pytest.raises(ConfigurationError, match="closed engine"):
            system.run(until=1.0)

    def test_with_block_closes_even_when_the_body_raises(self):
        with pytest.raises(KeyError):
            with build_system(StackSpec(n=3)) as system:
                raise KeyError("boom")
        with pytest.raises(ConfigurationError, match="closed engine"):
            system.run(until=1.0)

    def test_sharded_system_closes_every_group_and_its_engine(self):
        spec = ShardSpec(StackSpec(n=3), shards=2)
        with build_sharded_system(spec) as sharded:
            sharded.router.submit("k", make_payload(16))
            assert sharded.run_until_quiescent(timeout=1.0)
        sharded.close()
        assert sum(sharded.router.admitted) == 1
        assert sharded.router.window_stats()["completed"] == 1
        with pytest.raises(ConfigurationError, match="closed engine"):
            sharded.run(until=2.0)
