"""Tests for the declarative sweep grids (cheap — no simulations)."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.harness.experiment import ExperimentSpec
from repro.harness.suite import SweepSpec, expand
from repro.net.setups import SETUP_1
from repro.stack.builder import StackSpec


def stack(**overrides):
    defaults = dict(n=3, abcast="indirect", consensus="ct-indirect",
                    rb="sender", params=SETUP_1)
    defaults.update(overrides)
    return StackSpec(**defaults)


def sweep(**overrides):
    defaults = dict(
        name="unit",
        variants=(("a", stack()), ("b", stack(abcast="on-messages",
                                              consensus="ct"))),
        throughputs=(100.0, 400.0),
        payloads=(1, 2500),
        seeds=(0, 7),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def experiment(**overrides):
    defaults = dict(name="unit", stack=stack(), throughput=200.0, payload=64,
                    duration=0.3, warmup=0.05, drain=0.5)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestExpansion:
    def test_grid_size(self):
        s = sweep()
        assert len(s) == 2 * 2 * 2 * 2
        assert len(s.experiments()) == len(s)

    def test_expansion_order_is_variant_seed_throughput_payload(self):
        specs = sweep().experiments()
        # First variant's block comes first, seeds iterate within it.
        first_block = specs[: len(specs) // 2]
        assert all("unit/a " in spec.name for spec in first_block)
        assert [s.payload for s in specs[:2]] == [1, 2500]
        assert specs[0].throughput == specs[1].throughput == 100.0
        assert specs[2].throughput == 400.0
        assert "seed=0" in specs[0].name and "seed=7" in specs[4].name

    def test_seed_axis_overrides_stack_seed(self):
        specs = sweep(seeds=(13,)).experiments()
        assert all(spec.stack.seed == 13 for spec in specs)

    def test_duration_derived_from_target_messages(self):
        s = sweep(target_messages=120, warmup=0.1, throughputs=(400.0,))
        for spec in s.experiments():
            assert spec.duration == pytest.approx(0.1 + 120 / 400.0)

    def test_axes_accept_lists(self):
        s = SweepSpec(
            name="coerce",
            variants=[("only", stack())],
            throughputs=[100.0],
            payloads=[1],
            seeds=[0],
        )
        assert s.throughputs == (100.0,)
        assert s.payloads == (1,)
        assert len(s) == 1

    def test_expand_concatenates_sweeps(self):
        a, b = sweep(name="a"), sweep(name="b")
        specs = expand([a, b])
        assert len(specs) == len(a) + len(b)
        assert expand(a) == a.experiments()


class TestSafetyDefaults:
    def test_full_trace_checks_on(self):
        assert all(s.safety_checks for s in sweep().experiments())
        assert all(s.trace_mode == "full" for s in sweep().experiments())

    def test_metrics_mode_checks_on(self):
        specs = sweep(trace_mode="metrics").experiments()
        assert all(s.safety_checks for s in specs)
        assert all(s.trace_mode == "metrics" for s in specs)

    @pytest.mark.parametrize("trace_mode", ["full", "metrics"])
    def test_checks_switch_off_in_either_mode(self, trace_mode):
        specs = sweep(trace_mode=trace_mode, safety_checks=False).experiments()
        assert not any(s.safety_checks for s in specs)


class TestValidation:
    def test_empty_axes_rejected(self):
        for axis in ("variants", "throughputs", "payloads", "seeds"):
            with pytest.raises(ConfigurationError):
                sweep(**{axis: ()})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(variants=(("x", stack()), ("x", stack())))

    def test_nonpositive_throughput_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(throughputs=(0.0,))

    def test_unknown_trace_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(trace_mode="chatty")

    def test_nonpositive_target_messages_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(target_messages=0)

    @pytest.mark.parametrize("build, overrides, message", [
        (experiment, dict(throughput=0.0), "throughput must be > 0"),
        (experiment, dict(throughput=-5.0), "throughput must be > 0"),
        (experiment, dict(payload=-1), "payload must be >= 0"),
        (experiment, dict(duration=0.0), "duration must be > 0"),
        (experiment, dict(warmup=-0.1), "measurement window"),
        (experiment, dict(warmup=0.3), "measurement window"),
        (experiment, dict(drain=-0.5), "drain must be >= 0"),
        (experiment, dict(max_events=0), "max_events must be >= 1"),
        (sweep, dict(warmup=-0.1), "warmup must be >= 0"),
        (sweep, dict(drain=-0.5), "drain must be >= 0"),
        (sweep, dict(max_events=0), "max_events must be >= 1"),
    ])
    def test_nonsense_numbers_rejected_at_construction(
        self, build, overrides, message
    ):
        build()  # the defaults are valid
        with pytest.raises(ConfigurationError, match=message):
            build(**overrides)
