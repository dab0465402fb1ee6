"""Tests for the parallel suite runner: cache, pool, streaming metrics.

These are the acceptance tests of the sweep subsystem: a ≥ 8-point grid
executes through the multiprocessing pool, a second invocation serves
every point from the on-disk cache, parallel results are bit-for-bit
equal to serial ones, and a ``trace_mode="metrics"`` run agrees with
the full-``Trace`` run while retaining no event list.
"""

import concurrent.futures
import dataclasses
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.exceptions import ConfigurationError
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.runner import (
    ResultCache,
    SuiteError,
    _code_fingerprint,
    parallel_map,
    run_suite,
    spec_key,
)
from repro.harness.suite import SweepSpec
from repro.metrics.probes import PROBES, MetricValue, Probe
from repro.net.faults import DuplicationRule, LossRule
from repro.net.setups import SETUP_1
from repro.net.topology import Topology
from repro.stack.builder import StackSpec


ROOT = Path(__file__).resolve().parents[2]


def stack(**overrides):
    defaults = dict(n=3, abcast="indirect", consensus="ct-indirect",
                    rb="sender", params=SETUP_1)
    defaults.update(overrides)
    return StackSpec(**defaults)


def small_sweep(**overrides):
    """8 quick points: 2 variants × 2 throughputs × 2 payloads."""
    defaults = dict(
        name="grid",
        variants=(
            ("indirect", stack()),
            ("messages", stack(abcast="on-messages", consensus="ct")),
        ),
        throughputs=(200.0, 400.0),
        payloads=(1, 500),
        target_messages=40,
        warmup=0.05,
        drain=0.5,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def exp_spec(**overrides):
    defaults = dict(
        name="one",
        stack=stack(),
        throughput=200.0,
        payload=64,
        duration=0.3,
        warmup=0.05,
        drain=0.5,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpecKey:
    def test_stable_across_equal_specs(self):
        assert spec_key(exp_spec()) == spec_key(exp_spec())

    def test_name_does_not_affect_the_key(self):
        assert spec_key(exp_spec(name="x")) == spec_key(exp_spec(name="y"))

    def test_physical_fields_do_affect_the_key(self):
        base = spec_key(exp_spec())
        assert spec_key(exp_spec(payload=65)) != base
        assert spec_key(exp_spec(stack=stack(seed=1))) != base
        assert spec_key(exp_spec(trace_mode="metrics",
                                 safety_checks=False)) != base

    def test_fault_rules_participate_in_the_key(self):
        # Declarative fault rules are content-hashable: same rules give
        # the same key, a changed rule is a cache miss.
        lossy = exp_spec(stack=stack(faults=(LossRule(probability=0.1),)))
        assert spec_key(lossy) is not None
        assert spec_key(lossy) == spec_key(
            exp_spec(stack=stack(faults=(LossRule(probability=0.1),)))
        )
        assert spec_key(lossy) != spec_key(exp_spec())
        assert spec_key(lossy) != spec_key(
            exp_spec(stack=stack(faults=(LossRule(probability=0.2),)))
        )
        assert spec_key(lossy) != spec_key(
            exp_spec(stack=stack(faults=(DuplicationRule(probability=0.1),)))
        )

    def test_topology_participates_in_the_key(self):
        split = exp_spec(stack=stack(topology=Topology.split((1, 2), (3,))))
        assert spec_key(split) is not None
        assert spec_key(split) != spec_key(exp_spec())
        assert spec_key(split) != spec_key(exp_spec(stack=stack(
            topology=Topology.split((1, 2), (3,), router_latency=1e-3)
        )))

    def test_key_incorporates_a_source_tree_fingerprint(self):
        # The fingerprint is memoised and stable within a process; a
        # code edit would change it and invalidate old cache entries.
        fingerprint = _code_fingerprint()
        assert fingerprint == _code_fingerprint()
        assert len(fingerprint) == 64
        assert int(fingerprint, 16) >= 0


class TestResultCache:
    def test_store_then_load_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = exp_spec()
        result = run_experiment(spec)
        cache.store(spec, result)
        loaded = cache.load(spec)
        assert loaded is not None
        assert loaded.metric("latency") == result.metric("latency")
        assert loaded.sent == result.sent

    def test_load_rebinds_the_callers_spec_name(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = exp_spec(name="original")
        cache.store(spec, run_experiment(spec))
        renamed = dataclasses.replace(spec, name="renamed")
        loaded = cache.load(renamed)
        assert loaded is not None
        assert loaded.spec.name == "renamed"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = exp_spec()
        cache.store(spec, run_experiment(spec))
        # An unreadable file, and a readable pickle that is not a
        # result (a pre-probe entry): neither reaches the caller.
        for blob in (b"not a pickle",
                     pickle.dumps({"latency_ms": 1.0, "sent": 9})):
            cache.path_for(spec).write_bytes(blob)
            assert cache.load(spec) is None

    def test_spec_without_a_content_hash_is_refused(self):
        spec = exp_spec(name="opaque", stack=stack(params=object()))
        with pytest.raises(ConfigurationError, match="'opaque'"):
            spec_key(spec)


class TestRunSuite:
    def test_grid_runs_through_pool_then_fully_cached(self, tmp_path):
        sweep = small_sweep()
        assert len(sweep) == 8
        first = run_suite(sweep, cache_dir=tmp_path, processes=4)
        assert len(first) == 8
        assert first.cache_hits == 0
        assert first.cache_misses == 8
        # Second invocation: every point served from the on-disk cache.
        second = run_suite(sweep, cache_dir=tmp_path, processes=4)
        assert second.cache_hits == 8
        assert second.cache_misses == 0
        for a, b in zip(first.results, second.results):
            assert a.metrics == b.metrics
            assert a.sent == b.sent

    def test_parallel_equals_serial_bit_for_bit(self, tmp_path):
        sweep = small_sweep()
        parallel = run_suite(sweep, cache_dir=tmp_path / "a", processes=4)
        serial = run_suite(sweep, cache_dir=tmp_path / "b", processes=1)
        for a, b in zip(parallel.results, serial.results):
            # Everything but the wall-clock diagnostic is identical.
            assert a.metrics == b.metrics
            assert a.sent == b.sent
            assert a.simulated_seconds == b.simulated_seconds
            assert a.diagnostics["events"] == b.diagnostics["events"]

    def test_results_align_with_input_order(self, tmp_path):
        sweep = small_sweep()
        suite = run_suite(sweep, cache_dir=tmp_path)
        assert [s.name for s in suite.specs] == [
            s.name for s in sweep.experiments()
        ]
        assert all(
            result.spec.name == spec.name
            for spec, result in suite.pairs()
        )

    def test_partial_cache_only_computes_missing_points(self, tmp_path):
        half = small_sweep(payloads=(1,))
        run_suite(half, cache_dir=tmp_path)
        full = run_suite(small_sweep(), cache_dir=tmp_path)
        assert full.cache_hits == 4
        assert full.cache_misses == 4

    def test_use_cache_false_recomputes(self, tmp_path):
        sweep = small_sweep(payloads=(1,))
        run_suite(sweep, cache_dir=tmp_path)
        fresh = run_suite(sweep, cache_dir=tmp_path, use_cache=False)
        assert fresh.cache_hits == 0
        assert fresh.cache_misses == len(sweep)

    def test_summary_mentions_cache_accounting(self, tmp_path):
        suite = run_suite(small_sweep(payloads=(1,)), cache_dir=tmp_path)
        assert "4 points" in suite.summary()
        assert "0 cached" in suite.summary()

    def test_identical_points_computed_once_per_call(self, tmp_path):
        # Same physical grid under two names (e.g. a variant shared by
        # two figure panels): only one simulation per unique point.
        specs = [exp_spec(name="panel-a"), exp_spec(name="panel-b")]
        suite = run_suite(specs, cache_dir=tmp_path, use_cache=False)
        assert suite.cache_misses == 1
        assert suite.cache_hits == 1
        a, b = suite.results
        assert a.spec.name == "panel-a" and b.spec.name == "panel-b"
        assert a.metric("latency") == b.metric("latency")

    def test_failing_point_preserves_completed_siblings(self, tmp_path):
        good = exp_spec(name="good")
        # A tiny event budget: the run overruns it mid-simulation, so
        # this point raises — but only this point.
        bad = exp_spec(name="bad", max_events=100)
        with pytest.raises(SuiteError) as excinfo:
            run_suite([good, bad], cache_dir=tmp_path, processes=2)
        assert "bad" in str(excinfo.value)
        # The good point was cached before the error surfaced: a re-run
        # of it alone is a pure cache hit.
        again = run_suite([good], cache_dir=tmp_path)
        assert again.cache_hits == 1

    def test_unwritable_cache_location_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        suite = run_suite(
            small_sweep(payloads=(1,)), cache_dir=blocker / "sub"
        )
        assert len(suite) == 4
        assert all(r.sent > 0 for r in suite.results)
        assert suite.cache_hits == 0


class TestMetricsTraceMode:
    def test_metrics_agrees_with_full_trace_and_keeps_no_events(self):
        base = dict(stack=stack(), throughput=200.0, payload=64,
                    duration=0.4, warmup=0.05, drain=0.5)
        full = run_experiment(ExperimentSpec(name="full", **base))
        metrics = run_experiment(ExperimentSpec(
            name="metrics", trace_mode="metrics", safety_checks=False, **base
        ))
        assert metrics.metric("latency")["mean_ms"] == pytest.approx(
            full.metric("latency")["mean_ms"], abs=1e-12
        )
        latency, full_latency = metrics.metric("latency"), full.metric("latency")
        assert sorted(latency.sample("samples")) == sorted(
            full_latency.sample("samples")
        )
        for field in ("messages_measured", "fully_delivered"):
            assert latency[field] == full_latency[field]
        assert (
            metrics.metric("consensus")["instances_decided"]
            == full.metric("consensus")["instances_decided"]
        )
        assert metrics.sent == full.sent

    def test_metrics_mode_with_safety_checks_rejected(self):
        with pytest.raises(ConfigurationError):
            exp_spec(trace_mode="metrics", safety_checks=True)

    def test_unknown_trace_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            exp_spec(trace_mode="chatty")

    def test_metrics_sweep_runs_through_suite(self, tmp_path):
        sweep = small_sweep(trace_mode="metrics", payloads=(1,))
        suite = run_suite(sweep, cache_dir=tmp_path)
        assert all(r.metric("latency")["mean_ms"] > 0 for r in suite.results)


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], processes=2) == [9, 1, 4]

    def test_serial_fallback_for_unpicklable_fn(self):
        doubler = lambda x: x * 2  # noqa: E731 — deliberately unpicklable
        assert parallel_map(doubler, [1, 2, 3], processes=2) == [2, 4, 6]

    def test_one_unpicklable_item_does_not_serialise_the_rest(self):
        # A mixed batch still pools the picklable items; the offender
        # runs in-process.  Order is preserved throughout.
        items = [2, lambda: 3, 4, 5]
        out = parallel_map(_numify, items, processes=2)
        assert out == [2, 3, 4, 5]

    def test_empty_input(self):
        assert parallel_map(_square, [], processes=4) == []

    def test_serial_fallback_when_no_pool_can_start(self, monkeypatch):
        def no_semaphores(*args, **kwargs):
            raise OSError("no working semaphores")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", no_semaphores
        )
        assert parallel_map(_square, [3, 1, 2], processes=2) == [9, 1, 4]

    def test_results_are_picklable_specs_and_results(self):
        spec = exp_spec()
        pickle.loads(pickle.dumps(spec))
        result = run_experiment(spec)
        restored = pickle.loads(pickle.dumps(result))
        assert restored.metric("latency") == result.metric("latency")


class TestPoolLifetime:
    """One pool per ``parallel_map`` call, closed before it returns."""

    def test_no_worker_outlives_the_call(self):
        assert parallel_map(_square, [1, 2, 3, 4], processes=2) == [
            1, 4, 9, 16,
        ]
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_raising_call(self):
        with pytest.raises(ValueError, match="odd"):
            parallel_map(_reject_odd, [2, 3, 4, 5], processes=2)
        assert multiprocessing.active_children() == []

    def test_nested_call_in_a_worker_runs_serially(self):
        outer = parallel_map(_nested, [1, 2], processes=2)
        for x, (worker, inner) in zip([1, 2], outer):
            assert worker != os.getpid()
            # A worker does not start a pool of its own: every inner
            # item ran in the worker itself, in order.
            assert inner == [(worker, x), (worker, x + 1)]

    def test_a_dying_worker_fails_the_call_instead_of_hanging_it(self):
        # In a subprocess, so a regression hangs that child (and times
        # out) rather than this test session.
        script = (
            "from repro.harness.runner import parallel_map\n"
            "from tests.harness.test_runner import _exit_on_three\n"
            "parallel_map(_exit_on_three, [1, 2, 3, 4], processes=2)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), str(ROOT)]
            )},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode != 0
        assert "BrokenProcessPool" in done.stderr

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only fork-started workers inherit a late registration",
    )
    def test_probe_registered_after_a_pooled_call_reaches_the_pool(
        self, tmp_path, monkeypatch
    ):
        parallel_map(_square, [1, 2], processes=2)
        # Register into a copy of the registry, restored on teardown.
        monkeypatch.setattr(PROBES, "_entries", dict(PROBES._entries))
        PROBES.register("test-late-sent", "abroadcasts sent (test probe)",
                        factory=_SentProbe)
        specs = [exp_spec(name=f"late-{i}", payload=64 + i,
                          metrics=("latency", "test-late-sent"))
                 for i in range(2)]
        suite = run_suite(specs, cache_dir=tmp_path, processes=2)
        assert suite.cache_misses == 2
        for result in suite.results:
            assert result.metric("test-late-sent")["sent"] == result.sent


class _SentProbe(Probe):
    def finish(self, system, sent):
        return MetricValue.of({"sent": sent})


def _square(x):
    return x * x


def _reject_odd(x):
    if x % 2:
        raise ValueError(f"odd item {x}")
    return x


def _pid_and(x):
    return os.getpid(), x


def _exit_on_three(x):
    if x == 3:
        os._exit(3)
    return x


def _nested(x):
    return os.getpid(), parallel_map(_pid_and, [x, x + 1], processes=2)


def _numify(x):
    return x() if callable(x) else x
