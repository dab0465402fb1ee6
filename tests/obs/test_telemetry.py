"""Telemetry registry and the sampler.

The load-bearing claims: the sampler reads *live* engine state (the
queue's sequence counter, not the drain-exit-flushed
``events_executed``), and a sampled run is deterministic — two
identical specs produce bit-identical series.
"""

from types import SimpleNamespace

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.message import make_payload
from repro.obs.telemetry import Telemetry, TelemetrySampler, TimeSeries
from repro.shard.router import Router, completion_stats
from repro.sim.engine import Engine
from tests.helpers import count_calls


class TestRegistry:
    def test_series_created_on_first_record(self):
        telemetry = Telemetry()
        telemetry.record("a.depth", 0.1, 3.0)
        telemetry.record("a.depth", 0.2, 5.0)
        series = telemetry.get("a.depth")
        assert isinstance(series, TimeSeries)
        assert list(series) == [(0.1, 3.0), (0.2, 5.0)]
        assert series.last() == 5.0
        assert len(series) == 2

    def test_names_and_items_sorted(self):
        telemetry = Telemetry()
        for name in ("z", "a", "m"):
            telemetry.record(name, 0.0, 1.0)
        assert telemetry.names() == ("a", "m", "z")
        assert [name for name, _ in telemetry.items()] == ["a", "m", "z"]
        assert len(telemetry) == 3

    def test_get_missing_is_none(self):
        assert Telemetry().get("nope") is None


class TestSampler:
    def test_uninstalled_sampler_schedules_nothing(self):
        engine = Engine()
        telemetry = Telemetry()
        TelemetrySampler(engine, telemetry)
        engine.schedule(0.5, lambda: None)
        engine.run()
        assert len(telemetry) == 0

    def test_install_validates(self):
        engine = Engine()
        sampler = TelemetrySampler(engine, Telemetry())
        with pytest.raises(ConfigurationError, match="period"):
            sampler.install(period=0.0, until=1.0)
        sampler.install(period=0.1, until=1.0)
        with pytest.raises(ConfigurationError, match="installed"):
            sampler.install(period=0.1, until=1.0)

    def test_samples_live_queue_counters(self):
        # The regression this pins: ``engine.events_executed`` is
        # flushed only when the drain exits, so sampling it mid-run
        # would record stale zeros.  ``queue.scheduled`` (the queue's
        # live sequence counter) must move between ticks instead.
        engine = Engine()
        telemetry = Telemetry()
        sampler = TelemetrySampler(engine, telemetry)
        sampler.install(period=0.01, until=0.1)

        def churn() -> None:
            if engine.now < 0.09:
                engine.schedule(0.001, churn)

        churn()
        engine.run()
        scheduled = telemetry.get("queue.scheduled")
        assert scheduled is not None and len(scheduled) >= 9
        values = scheduled.values
        assert values[0] > 0.0
        assert values[-1] > values[0]  # live, not a stale constant
        per_tick = telemetry.get("queue.scheduled_per_tick").values
        assert any(v > 0.0 for v in per_tick)
        depth = telemetry.get("queue.depth")
        assert len(depth) == len(scheduled)

    def test_sampling_cadence_and_horizon(self):
        engine = Engine()
        telemetry = Telemetry()
        sampler = TelemetrySampler(engine, telemetry)
        sampler.install(period=0.02, until=0.1)
        engine.schedule(1.0, lambda: None)  # keep the run alive past it
        engine.run()
        times = telemetry.get("queue.depth").times
        assert times == pytest.approx([0.02, 0.04, 0.06, 0.08, 0.1])

    def test_installed_sampler_rides_a_prefilled_drain(self):
        # The enabled path: ticks interleave with bare queue entries,
        # each tick one event of its own, and the sampled depth falls
        # as the drain consumes the prefill.
        events, ticks = 2_000, 20
        engine = Engine()
        telemetry = Telemetry()
        TelemetrySampler(engine, telemetry).install(
            period=events * 1e-6 / ticks, until=events * 1e-6
        )
        push = engine.equeue.push_entry
        for i in range(events):
            push(i * 1e-6, _noop, ())
        engine.run()
        assert engine.events_executed == events + ticks
        depth = telemetry.get("queue.depth").values
        assert len(depth) == ticks
        assert all(later < earlier for earlier, later in zip(depth, depth[1:]))
        assert depth[-1] == 0.0

    def test_router_series_read_public_state_and_the_window_function(self):
        engine = Engine()
        groups = [SimpleNamespace(config=SimpleNamespace(processes=()),
                                  abcasts={})]
        # A slow forwarding hop keeps the 15 ms arrival in flight at
        # the 20 ms tick.
        router = Router(engine, groups, forward_latency=0.01)
        telemetry = Telemetry()
        TelemetrySampler(engine, telemetry, router=router).install(
            period=0.01, until=0.02
        )
        batches = [[(0.001, 0.002), (0.004, 0.001)], [(0.012, 0.003)]]

        def log(batch):
            for arrival, sojourn in batch:
                router.arrivals[0].append(arrival)
                router.sojourns[0].append(sojourn)

        for i, batch in enumerate(batches):
            engine.schedule_at(0.005 + 0.01 * i, log, batch)
        engine.schedule_at(0.015, router.submit_shard, 0, make_payload(8))
        engine.run()
        per_period = [completion_stats(batch, 0.01) for batch in batches]
        assert telemetry.get("shard0.goodput").values == [
            stats["goodput"] for stats in per_period
        ] == [200.0, 100.0]
        assert telemetry.get("shard0.sojourn_p99_ms").values == [
            stats["sojourn_p99_ms"] for stats in per_period
        ]
        assert telemetry.get("shard0.inflight").values == [0.0, 1.0]

    def test_sampled_run_is_deterministic(self):
        from repro.harness.experiment import ExperimentSpec
        from repro.net.setups import SETUP_1
        from repro.obs.session import observe_experiment
        from repro.stack.builder import StackSpec

        spec = ExperimentSpec(
            name="det",
            stack=StackSpec(n=3, seed=5, abcast="indirect",
                            consensus="ct-indirect", rb="sender",
                            params=SETUP_1),
            throughput=200.0,
            payload=64,
            duration=0.2,
            warmup=0.05,
            drain=0.4,
        )
        first = observe_experiment(spec, period=0.01)
        second = observe_experiment(spec, period=0.01)
        assert first.telemetry.names() == second.telemetry.names()
        for name, series in first.telemetry.items():
            other = second.telemetry.get(name)
            assert series.times == other.times, name
            assert series.values == other.values, name
        assert first.spans == second.spans
        assert len(first.telemetry) > 0 and len(first.spans) > 0


def _noop() -> None:
    pass


class TestDisabledPath:
    """Obs available but not enabled costs the drain nothing.

    Telemetry and an un-installed sampler are built beside the engine,
    and the drain must make exactly the Python-level calls of a plain
    engine: a hook that fired, or a wrapper left on the path, shows as
    a count difference on every machine.
    """

    EVENTS = 50_000

    def _drain_calls(self, with_obs: bool) -> int:
        engine = Engine()
        if with_obs:
            telemetry = Telemetry()
            sampler = TelemetrySampler(engine, telemetry)
            assert not sampler.installed
        push = engine.equeue.push_entry
        for i in range(self.EVENTS):
            push(i * 1e-6, _noop, ())
        _, calls = count_calls(
            lambda: engine.run(max_events=self.EVENTS + 1),
            lambda _code: "call",
        )
        assert engine.events_executed == self.EVENTS
        if with_obs:
            assert len(telemetry) == 0
        return calls["call"]

    def test_obs_off_drain_within_budget(self):
        plain_calls = self._drain_calls(with_obs=False)
        obs_off_calls = self._drain_calls(with_obs=True)
        # One call per event (the no-op payload) plus the run's entry
        # frames; a second per-event call would push this past 2x.
        assert self.EVENTS <= plain_calls < 2 * self.EVENTS
        assert obs_off_calls == plain_calls, (
            f"obs-off drain made {obs_off_calls} Python-level calls for "
            f"{self.EVENTS} events, the plain drain {plain_calls}"
        )
