"""Fault and topology axes through the parallel suite runner.

Acceptance tests of the link-subsystem refactor at the harness layer:
fault-free latency numbers are **bit-identical** to the pre-refactor
implementation (golden values recorded from the previous `main`), a
loss-rate sweep and a partition-window scenario both run through
``run_suite`` with correct cache accounting, and the fault/topology
axes expand and label grid points deterministically.
"""

import pytest

from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.runner import run_suite, spec_key
from repro.harness.suite import SweepSpec
from repro.net.faults import LossRule, PartitionWindow
from repro.net.setups import SETUP_1, SETUP_2
from repro.net.topology import Topology
from repro.stack.builder import StackSpec


def stack(**overrides):
    defaults = dict(n=3, abcast="indirect", consensus="ct-indirect",
                    rb="sender", params=SETUP_1)
    defaults.update(overrides)
    return StackSpec(**defaults)


class TestGoldenRegression:
    """Fault-free runs must match the pre-refactor implementation
    bit for bit (values recorded on `main` before the link-subsystem
    refactor).  A drift here means the pipeline/topology default path
    is no longer inert."""

    CASES = {
        "contention-indirect": (
            ExperimentSpec(
                name="golden-contention",
                stack=stack(seed=7),
                throughput=200.0, payload=64, duration=0.3,
                warmup=0.05, drain=0.5,
            ),
            (2.5574951129797894, 65, 1493, 3746, 0.8),
        ),
        "contention-messages": (
            ExperimentSpec(
                name="golden-messages",
                stack=stack(abcast="on-messages", consensus="ct",
                            rb="flood", params=SETUP_2, seed=3),
                throughput=300.0, payload=500, duration=0.25,
                warmup=0.05, drain=0.5,
            ),
            (1.3594270056790299, 79, 2108, 5434, 0.25052674034662276),
        ),
        "constant-jitter": (
            ExperimentSpec(
                name="golden-constant",
                stack=stack(
                    abcast="urb-ids", consensus="ct", network="constant",
                    constant_latency=1e-3, constant_per_byte=1e-7,
                    constant_jitter=2e-4, seed=11,
                ),
                throughput=200.0, payload=100, duration=0.3,
                warmup=0.05, drain=0.5,
            ),
            (5.3100355322822566, 47, 1195, 1233, 0.30402473427776333),
        ),
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_fault_free_runs_are_bit_identical_to_pre_refactor(self, label):
        spec, golden = self.CASES[label]
        result = run_experiment(spec)
        got = (
            result.metric("latency")["mean_ms"],
            result.sent,
            result.metric("traffic")["frames_total"],
            result.diagnostics["events"],
            result.simulated_seconds,
        )
        assert got == golden


class TestAxisExpansion:
    def test_default_axes_change_nothing(self):
        plain = SweepSpec(
            name="s", variants=(("a", stack()),),
            throughputs=(100.0,), payloads=(1,),
        )
        assert len(plain) == 1
        spec = plain.experiments()[0]
        assert spec.name == "s/a n=3 100msg/s 1B seed=0"
        assert spec.stack.faults == ()
        assert spec.stack.topology is None

    def test_fault_and_topology_axes_multiply_and_label(self):
        sweep = SweepSpec(
            name="s", variants=(("a", stack()),),
            fault_sets=(("", ()), ("loss2", (LossRule(probability=0.02),))),
            topologies=(("", None), ("split", Topology.split((1, 2), (3,)))),
            throughputs=(100.0,), payloads=(1,),
        )
        assert len(sweep) == 4
        names = [s.name for s in sweep.experiments()]
        assert names[0].startswith("s/a ")
        assert any("+loss2" in n and "@split" not in n for n in names)
        assert any("@split" in n and "+loss2" not in n for n in names)
        assert any("+loss2@split" in n for n in names)

    def test_fault_axis_appends_to_variant_faults(self):
        window = PartitionWindow(start=0.1, end=0.2, groups=((1,), (2, 3)))
        sweep = SweepSpec(
            name="s",
            variants=(("a", stack(faults=(window,))),),
            fault_sets=(("loss", (LossRule(probability=0.1),)),),
            throughputs=(100.0,), payloads=(1,),
        )
        faults = sweep.experiments()[0].stack.faults
        assert faults == (window, LossRule(probability=0.1))

    def test_duplicate_axis_labels_rejected(self):
        from repro.core.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            SweepSpec(
                name="s", variants=(("a", stack()),),
                fault_sets=(("x", ()), ("x", (LossRule(probability=0.1),))),
                throughputs=(100.0,), payloads=(1,),
            )


class TestFaultSweepsThroughRunner:
    def loss_sweep(self, rates):
        return SweepSpec(
            name="loss-sweep",
            variants=(("indirect", stack()),),
            fault_sets=tuple(
                (f"loss{int(rate * 100)}",
                 (LossRule(probability=rate, kind_prefix="rb1."),))
                if rate else ("", ())
                for rate in rates
            ),
            throughputs=(200.0,),
            payloads=(64,),
            target_messages=30,
            warmup=0.05,
            drain=0.5,
            safety_checks=False,
        )

    def test_loss_rate_sweep_with_correct_cache_accounting(self, tmp_path):
        sweep = self.loss_sweep((0.0, 0.02))
        first = run_suite(sweep, cache_dir=tmp_path, processes=2)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        assert all(r.sent > 0 for r in first.results)
        # Identical sweep: all hits.
        second = run_suite(sweep, cache_dir=tmp_path, processes=2)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        assert second.results[0].metrics == first.results[0].metrics
        # Changed loss rate: the shared baseline hits, the new rate misses.
        third = run_suite(
            self.loss_sweep((0.0, 0.05)), cache_dir=tmp_path, processes=2
        )
        assert (third.cache_hits, third.cache_misses) == (1, 1)

    def test_partition_scenario_through_parallel_run_suite(self, tmp_path):
        window = PartitionWindow(start=0.1, end=0.2, groups=((1, 2), (3,)))
        specs = [
            ExperimentSpec(
                name="baseline", stack=stack(network="constant"),
                throughput=200.0, payload=64, duration=0.3,
                warmup=0.05, drain=0.5, safety_checks=False,
            ),
            ExperimentSpec(
                name="partitioned",
                stack=stack(network="constant", faults=(window,)),
                throughput=200.0, payload=64, duration=0.3,
                warmup=0.05, drain=0.5, safety_checks=False,
            ),
        ]
        assert spec_key(specs[0]) != spec_key(specs[1])
        first = run_suite(specs, cache_dir=tmp_path, processes=2)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        # The partition leaves the minority behind: undelivered backlog.
        assert first.results[1].undelivered > first.results[0].undelivered
        second = run_suite(specs, cache_dir=tmp_path, processes=2)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        assert second.results[1].undelivered == first.results[1].undelivered

    def test_topology_axis_through_run_suite(self, tmp_path):
        sweep = SweepSpec(
            name="topo",
            variants=(("indirect", stack()),),
            topologies=(
                ("lan", None),
                ("2seg", Topology.split((1, 2), (3,), router_latency=1e-3)),
            ),
            throughputs=(200.0,),
            payloads=(64,),
            target_messages=30,
            warmup=0.05,
            drain=0.5,
        )
        suite = run_suite(sweep, cache_dir=tmp_path, processes=2)
        by_name = suite.by_name()
        lan = by_name["topo/indirect@lan n=3 200msg/s 64B seed=0"]
        wan = by_name["topo/indirect@2seg n=3 200msg/s 64B seed=0"]
        assert (
            wan.metric("latency")["mean_ms"] > lan.metric("latency")["mean_ms"]
        )
