"""Tests for the experiment runner and the figure/report machinery."""

import pytest

from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.figures import figure2_table
from repro.harness.report import render_figure, render_table
from repro.harness.results import ResultSet
from repro.net.setups import SETUP_1
from repro.stack.builder import StackSpec


def quick_spec(**overrides):
    defaults = dict(
        name="unit",
        stack=StackSpec(n=3, params=SETUP_1, fd="oracle", seed=0),
        throughput=200.0,
        payload=64,
        duration=0.3,
        warmup=0.05,
        drain=0.5,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_produces_consistent_result(self):
        result = run_experiment(quick_spec())
        assert result.sent > 30
        assert result.undelivered == 0
        assert result.metric("latency")["mean_ms"] > 0.5  # network floor
        assert result.metric("consensus")["instances_decided"] > 0
        assert result.metric("latency")["fully_delivered"] > 0
        assert result.metric("traffic")["frames_total"] > result.sent

    def test_repeatable(self):
        a = run_experiment(quick_spec())
        b = run_experiment(quick_spec())
        assert a.metric("latency")["mean_ms"] == b.metric("latency")["mean_ms"]
        assert a.sent == b.sent

    def test_data_vs_control_byte_split(self):
        big = run_experiment(quick_spec(payload=2000))
        small = run_experiment(quick_spec(payload=1))
        big_traffic, small_traffic = big.metric("traffic"), small.metric("traffic")
        assert big_traffic["data_bytes"] > small_traffic["data_bytes"] * 5
        # Control traffic (consensus on ids) is payload-independent.
        assert big_traffic["control_bytes"] == pytest.approx(
            small_traffic["control_bytes"], rel=0.3
        )

    def test_safety_checks_run_by_default(self):
        assert quick_spec().safety_checks is True


class TestFigure2Table:
    def test_contains_paper_example_row(self):
        rows = {r["n"]: r for r in figure2_table().to_rows()}
        seven = rows[7]
        assert seven["f_max (indirect MR)"] == 2
        assert seven["phase2 quorum ⌈(2n+1)/3⌉"] == 5
        assert seven["min overlap (n-2f)"] == 3
        assert seven["f_max (original MR)"] == 3

    def test_indirect_never_beats_original(self):
        for row in figure2_table().to_rows():
            assert row["f_max (indirect MR)"] <= row["f_max (original MR)"]


class TestReportRendering:
    def test_render_table(self):
        out = render_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], title="T")
        assert "T" in out
        assert "a" in out and "b" in out
        assert "22" in out

    def test_render_empty_table(self):
        assert render_table([]) == "(empty table)"

    def test_render_figure_layout(self):
        panel = ResultSet({
            "label": ["A", "A", "B"],
            "payload": [1, 100, 1],
            "latency.mean_ms": [1.5, 2.5, 4.0],
        })
        out = render_figure("1", {"panel-1": panel})
        assert "fig1" in out and "panel-1" in out and "2.500" in out
        # One row per x, one column per curve; a curve without a point
        # at some x shows "-" there.
        rows = out.splitlines()
        assert [cell.strip() for cell in rows[-1].split(" | ")] == [
            "100", "2.500", "-"
        ]
