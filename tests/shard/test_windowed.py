"""Windowed router statistics and their sweep-column wiring.

``window_count`` must be a pure function of the measurement bounds and
the width — not of traffic — so every point of a sweep shares one
windowed schema and ``concat``'s strict mode accepts the slices.
"""

from types import SimpleNamespace

import pytest

from repro.core.exceptions import ConfigurationError
from repro.harness.suite import SweepSpec
from repro.net.setups import SETUP_1
from repro.shard.router import Router
from repro.shard.sweep import ShardSweepSpec, run_shard_point
from repro.sim.engine import Engine
from repro.stack.builder import StackSpec


def _bare_router(shards=2):
    """A router over inert groups: no processes, no abcast wiring —
    just the admission/completion bookkeeping under test."""
    groups = [
        SimpleNamespace(config=SimpleNamespace(processes=()), abcasts={})
        for _ in range(shards)
    ]
    return Router(Engine(), groups)


def _log(router, shard, *completions):
    """Append ``(arrival, sojourn)`` pairs to ``shard``'s completion log."""
    for arrival, sojourn in completions:
        router.arrivals[shard].append(arrival)
        router.sojourns[shard].append(sojourn)


class TestWindowCount:
    def test_pure_function_of_bounds_and_width(self):
        router = _bare_router()
        router.measure_from = 0.1
        router.measure_until = 0.5
        assert router.window_count(0.1) == 4
        assert router.window_count(0.25) == 2
        assert router.window_count(1.0) == 1
        # Traffic does not change the schema.
        _log(router, 0, (0.2, 0.01))
        assert router.window_count(0.1) == 4

    def test_ragged_tail_rounds_up(self):
        router = _bare_router()
        router.measure_from = 0.0
        router.measure_until = 0.35
        assert router.window_count(0.1) == 4

    def test_float_noise_does_not_add_a_window(self):
        router = _bare_router()
        router.measure_from = 0.1
        router.measure_until = 0.4  # 0.3 span; 0.3/0.1 is 2.9999... here
        assert router.window_count(0.1) == 3

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError, match="window"):
            _bare_router().window_count(0.0)


class TestWindowedStats:
    def _loaded_router(self):
        router = _bare_router()
        router.measure_from = 0.1
        router.measure_until = 0.3
        # Shard 0: one completion per window; shard 1: all in window 1.
        _log(router, 0, (0.12, 0.010), (0.25, 0.030))
        _log(router, 1, (0.21, 0.020), (0.22, 0.040))
        # Outside the measurement bounds: never counted.
        _log(router, 0, (0.05, 9.9))
        _log(router, 1, (0.30, 9.9))
        return router

    def test_buckets_by_arrival(self):
        router = self._loaded_router()
        windows = router.windowed_stats(0.1)
        assert len(windows) == 2
        assert [w["completed"] for w in windows] == [1.0, 3.0]
        assert windows[0]["start"] == pytest.approx(0.1)
        assert windows[0]["end"] == pytest.approx(0.2)
        assert windows[1]["end"] == pytest.approx(0.3)
        assert windows[0]["goodput"] == pytest.approx(10.0)
        assert windows[1]["goodput"] == pytest.approx(30.0)

    def test_per_shard_slice(self):
        router = self._loaded_router()
        shard0 = router.windowed_stats(0.1, shard=0)
        assert [w["completed"] for w in shard0] == [1.0, 1.0]
        shard1 = router.windowed_stats(0.1, shard=1)
        assert [w["completed"] for w in shard1] == [0.0, 2.0]

    def test_sojourn_percentile_per_window(self):
        router = self._loaded_router()
        windows = router.windowed_stats(0.1)
        assert windows[0]["sojourn_p99_ms"] == pytest.approx(10.0)
        assert windows[1]["sojourn_p99_ms"] == pytest.approx(40.0)
        empty = router.windowed_stats(0.1, shard=1)[0]
        assert empty["sojourn_p99_ms"] == 0.0


def _sweep_spec(**overrides):
    base = dict(
        name="windowed",
        stack=StackSpec(n=2, abcast="indirect", consensus="ct-indirect",
                        network="constant", params=SETUP_1),
        shards=(2,),
        offered_loads=(150.0,),
        duration=0.3,
        warmup=0.1,
        drain=0.4,
        window=0.05,
    )
    base.update(overrides)
    return ShardSweepSpec(**base)


def _suite_spec(**overrides):
    return SweepSpec(
        name="axes", variants=(("indirect", StackSpec(n=2)),),
        throughputs=(100.0,), **overrides
    )


class TestSweepWiring:
    def test_window_must_fit_the_measurement_span(self):
        with pytest.raises(ConfigurationError, match="window"):
            _sweep_spec(window=0.25)  # > duration - warmup
        with pytest.raises(ConfigurationError, match="window"):
            _sweep_spec(window=-0.1)

    def test_unknown_admission_policy_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="'shed', 'delay'"):
            _sweep_spec(admission="dely")

    def test_zero_router_capacity_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="router_capacity"):
            _sweep_spec(router_capacity=0)

    def test_negative_drain_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="drain"):
            _sweep_spec(drain=-0.1)

    @pytest.mark.parametrize("build, overrides, match", [
        (_sweep_spec, {"shards": ()}, "shards must be non-empty"),
        (_sweep_spec, {"workloads": ()}, "workloads must be non-empty"),
        (_sweep_spec, {"offered_loads": ()}, "loads must be non-empty"),
        (_sweep_spec, {"payloads": ()}, "payloads must be non-empty"),
        (_sweep_spec, {"seeds": ()}, "seeds must be non-empty"),
        (_sweep_spec, {"offered_loads": (0.0,)}, "offered_loads must be > 0"),
        (_sweep_spec, {"offered_loads": (9.0, -1.0)}, "loads must be > 0"),
        (_sweep_spec, {"payloads": (64, -1)}, "payloads must be >= 0"),
        (_suite_spec, {"payloads": (-1,)}, "payloads must be >= 0"),
    ])
    def test_bad_axes_rejected_at_construction(self, build, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            build(**overrides)

    def test_points_carry_the_window(self):
        spec = _sweep_spec()
        assert all(p.spec.window == 0.05 for p in spec.points())
        assert all(
            p.spec.window is None for p in _sweep_spec(window=None).points()
        )

    def test_point_rows_gain_schema_stable_window_columns(self):
        spec = _sweep_spec()
        point = spec.points()[0]
        rows = run_shard_point(point)
        names = rows.columns
        window_columns = [n for n in names if n.startswith("window.")]
        # (duration - warmup) / window = 0.2 / 0.05 = 4 windows, two
        # series each, for every row regardless of traffic.
        assert sorted(window_columns) == sorted(
            [f"window.{i}.goodput" for i in range(4)]
            + [f"window.{i}.sojourn_p99_ms" for i in range(4)]
        )
        assert len(rows) == point.shards
        total = sum(
            rows.column(f"window.{i}.goodput")[shard] * 0.05
            for i in range(4)
            for shard in range(point.shards)
        )
        assert total == pytest.approx(
            sum(rows.column("shard.completed")), abs=1e-6
        )

    def test_without_window_no_columns_appear(self):
        point = _sweep_spec(window=None).points()[0]
        rows = run_shard_point(point)
        assert not [n for n in rows.columns if n.startswith("window.")]
