"""Full-trace vs metrics-mode probe agreement (the acceptance test).

Both trace modes call the *same* probe set from their own ``record``,
so every built-in probe must report **bit-identical** values whether
the run retained a checkable event trace (``trace_mode="full"``) or
nothing at all (``trace_mode="metrics"``).  Asserted on the four stacks
of the paper's evaluation.
"""

import pytest

from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.metrics.probes import DEFAULT_PROBES
from repro.net.setups import SETUP_1, SETUP_2
from repro.stack.builder import StackSpec

#: The four golden stacks of the evaluation (Figures 1-7).
GOLDEN_STACKS = {
    "indirect": dict(abcast="indirect", consensus="ct-indirect",
                     rb="sender", params=SETUP_1),
    "on-messages": dict(abcast="on-messages", consensus="ct",
                        rb="sender", params=SETUP_1),
    "faulty-ids": dict(abcast="faulty-ids", consensus="ct",
                       rb="sender", params=SETUP_1),
    "urb-ids": dict(abcast="urb-ids", consensus="ct",
                    rb="flood", params=SETUP_2),
}


def run_pair(stack_kwargs):
    base = dict(
        stack=StackSpec(n=3, seed=5, **stack_kwargs),
        throughput=200.0,
        payload=64,
        duration=0.3,
        warmup=0.05,
        drain=0.5,
    )
    full = run_experiment(ExperimentSpec(name="full", **base))
    metrics = run_experiment(ExperimentSpec(
        name="metrics", trace_mode="metrics", safety_checks=False, **base
    ))
    return full, metrics


class TestProbeAgreement:
    @pytest.mark.parametrize("stack_name", sorted(GOLDEN_STACKS))
    def test_every_builtin_probe_is_bit_identical_across_modes(
        self, stack_name
    ):
        full, metrics = run_pair(GOLDEN_STACKS[stack_name])
        assert set(full.metrics) == set(DEFAULT_PROBES)
        for probe in DEFAULT_PROBES:
            # MetricValue equality covers every field and every sample
            # vector — bit-identical, not approximately equal.
            assert full.metrics[probe] == metrics.metrics[probe], probe

    @pytest.mark.parametrize("stack_name", sorted(GOLDEN_STACKS))
    def test_run_accounting_agrees_across_modes(self, stack_name):
        full, metrics = run_pair(GOLDEN_STACKS[stack_name])
        assert full.sent == metrics.sent
        assert full.undelivered == metrics.undelivered
        assert full.simulated_seconds == metrics.simulated_seconds
        assert full.diagnostics["events"] == metrics.diagnostics["events"]

    def test_figure_assembly_rejects_latency_less_probe_sets(
        self, monkeypatch
    ):
        from repro.core.exceptions import ConfigurationError
        from repro.harness import figures

        monkeypatch.setattr(figures, "run_suite", None)  # never reached
        with pytest.raises(ConfigurationError, match="latency"):
            figures.run_figures(["1"], metrics=("traffic",))

    def test_headline_fields_agree_across_modes(self):
        full, metrics = run_pair(GOLDEN_STACKS["indirect"])
        for probe, field in (
            ("latency", "mean_ms"),
            ("latency", "p90_ms"),
            ("traffic", "frames_total"),
            ("traffic", "data_bytes"),
            ("traffic", "control_bytes"),
            ("consensus", "instances_decided"),
        ):
            assert full.metric(probe)[field] == metrics.metric(probe)[field]
        assert full.metric("latency") == metrics.metric("latency")
