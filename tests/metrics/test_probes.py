"""Tests for the metric-probe registry, MetricValue, and built-in probes.

Includes the acceptance scenario of the probe redesign: a *custom*
probe registered from the outside sweeps end-to-end — spec → pool
worker → on-disk cache → ResultSet → report — without modifying any
``harness/`` module.
"""

import pickle

import pytest

from repro.analysis.traffic import TrafficBreakdown, traffic_breakdown
from repro.core.exceptions import ConfigurationError
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.report import render_resultset
from repro.harness.runner import run_suite, spec_key
from repro.harness.suite import SweepSpec
from repro.metrics.probes import (
    DEFAULT_PROBES,
    PROBES,
    MetricValue,
    Probe,
    is_data_kind,
)
from repro.net.setups import SETUP_1
from repro.net.topology import Topology
from repro.stack.builder import StackSpec


def stack(**overrides):
    defaults = dict(n=3, abcast="indirect", consensus="ct-indirect",
                    rb="sender", params=SETUP_1)
    defaults.update(overrides)
    return StackSpec(**defaults)


def quick_spec(**overrides):
    defaults = dict(
        name="probe-unit", stack=stack(), throughput=200.0, payload=64,
        duration=0.3, warmup=0.05, drain=0.5,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestMetricValue:
    def test_canonical_order_makes_equality_insensitive_to_input_order(self):
        a = MetricValue.of({"b": 2.0, "a": 1.0})
        b = MetricValue.of({"a": 1.0, "b": 2.0})
        assert a == b
        assert a.keys() == ("a", "b")

    def test_getitem_get_and_sample(self):
        value = MetricValue.of({"x": 3.5}, series={"s": [1.0, 2.0]})
        assert value["x"] == 3.5
        assert value.get("missing", 9.0) == 9.0
        assert value.sample("s") == (1.0, 2.0)
        with pytest.raises(KeyError, match="no field"):
            value["missing"]
        with pytest.raises(KeyError, match="no series"):
            value.sample("missing")

    def test_non_numeric_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricValue.of({"bad": "text"})
        with pytest.raises(ConfigurationError):
            MetricValue.of({"bad": True})

    def test_hashable_and_picklable(self):
        value = MetricValue.of({"x": 1.0}, series={"s": [0.5]})
        assert hash(value) == hash(pickle.loads(pickle.dumps(value)))

    def test_as_dict_is_plain_data(self):
        value = MetricValue.of({"x": 1}, series={"s": [2.0]})
        assert value.as_dict() == {"fields": {"x": 1}, "series": {"s": [2.0]}}


class TestRegistry:
    def test_builtins_are_registered(self):
        for name in DEFAULT_PROBES:
            assert name in PROBES

    def test_unknown_probe_name_fails_at_spec_construction(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            quick_spec(metrics=("latancy",))

    def test_duplicate_probe_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            quick_spec(metrics=("latency", "latency"))

    def test_metrics_axis_participates_in_the_cache_key(self):
        assert spec_key(quick_spec()) != spec_key(
            quick_spec(metrics=("latency",))
        )

    def test_label_is_presentation_only(self):
        assert spec_key(quick_spec()) == spec_key(quick_spec(label="curve"))


class TestBuiltinProbes:
    def test_restricted_metrics_axis_measures_only_those_probes(self):
        result = run_experiment(quick_spec(metrics=("latency", "traffic")))
        assert set(result.metrics) == {"latency", "traffic"}
        with pytest.raises(KeyError, match="no 'consensus' metric"):
            result.metric("consensus")["instances_decided"]

    def test_traffic_probe_matches_the_live_network_breakdown(self):
        systems = []
        result = run_experiment(quick_spec(), on_system=systems.append)
        rebuilt = TrafficBreakdown.from_result(result)
        assert rebuilt == traffic_breakdown(systems[0].network)
        traffic = result.metric("traffic")
        assert rebuilt.total_frames == traffic["frames_total"]
        assert rebuilt.total_bytes == (
            traffic["data_bytes"] + traffic["control_bytes"]
        )
        assert rebuilt.data_frames > 0 and rebuilt.control_frames > 0
        # One data-vs-control rule: the byte split the probe reports and
        # the frame split the view derives classify the same kinds.
        data_kinds = {
            kind for kind in rebuilt.frames_by_kind if is_data_kind(kind)
        }
        assert data_kinds == {"rb1.data"}
        assert rebuilt.data_bytes == sum(
            rebuilt.bytes_by_kind[kind] for kind in data_kinds
        )

    def test_fd_probe_counts_nothing_on_a_clean_oracle_run(self):
        value = run_experiment(quick_spec()).metric("fd")
        assert value["suspicions_raised"] == 0
        assert value["suspicions_retracted"] == 0

    def test_consensus_probe_counts_instances_and_rounds(self):
        value = run_experiment(quick_spec()).metric("consensus")
        assert value["instances_decided"] > 0
        assert value["decides_total"] >= value["instances_decided"]
        # Even failure-free, rcv-gated nacks may rotate a coordinator:
        # assert ordering, not an exact round count.
        assert value["churn_round_max"] >= value["decision_round_max"] >= 1.0
        assert value["first_round_decisions"] > 0

    def test_utilisation_probe_reports_per_segment_figures(self):
        # The satellite fix: multi-segment topologies used to report a
        # single number read off segment 0 (or 0.0 with no .medium);
        # every segment must now be visible, non-zero, and attributable.
        split = run_experiment(quick_spec(
            stack=stack(topology=Topology.split((1, 2), (3,))),
        ))
        value = split.metric("utilisation")
        assert value["medium.0"] > 0.0
        assert value["medium.1"] > 0.0
        assert value["medium_max"] == max(
            value["medium.0"], value["medium.1"]
        )

    def test_constant_network_has_no_contended_resources(self):
        result = run_experiment(quick_spec(stack=stack(network="constant")))
        assert result.metric("utilisation").fields == ()

    def test_latency_probe_raises_outside_the_measurement_window(self):
        with pytest.raises(ConfigurationError, match="measurement window"):
            run_experiment(quick_spec(duration=0.01, warmup=0.05))


# ----------------------------------------------------------------------
# Custom-probe acceptance: registered outside, swept end-to-end
# ----------------------------------------------------------------------


class AbcastFramesProbe(Probe):
    """Counts frames whose kind belongs to the reliable-broadcast data
    plane — a stand-in for any study-specific measurement."""

    def finish(self, system, sent):
        network = system.network
        data = sum(
            count for kind, count in network.frames_sent.items()
            if kind.endswith(".data")
        )
        return MetricValue.of({
            "data_frames": data,
            "per_send": data / sent if sent else 0.0,
        })


if "test-data-frames" not in PROBES:  # idempotent across collection
    PROBES.register(
        "test-data-frames",
        "data-plane frames per abroadcast (test probe)",
        factory=AbcastFramesProbe,
    )


class TestCustomProbeEndToEnd:
    def test_sweeps_through_pool_cache_resultset_and_report(self, tmp_path):
        sweep = SweepSpec(
            name="custom",
            variants=(("indirect", stack()),),
            throughputs=(200.0, 400.0),
            payloads=(64,),
            target_messages=30,
            warmup=0.05,
            drain=0.5,
            metrics=DEFAULT_PROBES + ("test-data-frames",),
        )
        suite = run_suite(sweep, cache_dir=tmp_path, processes=2)
        assert suite.cache_misses == 2
        rs = suite.result_set()
        assert "test-data-frames.data_frames" in rs.columns
        assert all(v > 0 for v in rs.column("test-data-frames.data_frames"))
        # Cached round trip preserves the custom payload.
        again = run_suite(sweep, cache_dir=tmp_path, processes=2)
        assert again.cache_hits == 2
        assert again.result_set().to_rows() == rs.to_rows()
        # And the report surface renders it without special-casing.
        out = render_resultset(
            rs, columns=("name", "test-data-frames.per_send"),
        )
        assert "test-data-frames.per_send" in out

    def test_custom_probe_sees_the_event_stream_identically(self):
        base = dict(
            stack=stack(), throughput=200.0, payload=64,
            duration=0.3, warmup=0.05, drain=0.5,
            metrics=("latency", "test-data-frames"),
        )
        full = run_experiment(ExperimentSpec(name="f", **base))
        light = run_experiment(ExperimentSpec(
            name="m", trace_mode="metrics", safety_checks=False, **base
        ))
        assert full.metrics["test-data-frames"] == (
            light.metrics["test-data-frames"]
        )
