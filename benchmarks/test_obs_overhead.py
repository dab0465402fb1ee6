"""Disabled-path overhead of the observability layer: the ≤2% pin.

The obs design promise (``src/repro/obs/telemetry.py``) is that a run
with observability *available but not enabled* executes the same fused
drain as a build that never imported ``repro.obs``: span recording
rides the probe tap (absent unless attached), queue telemetry rides
the event-queue observer slot (``None`` unless occupied), and the
sampler schedules nothing until ``install``.  This module measures
that promise instead of trusting it:

* ``test_obs_off_drain_within_budget`` — drains the identical
  50k-event queue from ``benchmarks/test_engine_run_loop.py`` on a
  plain engine and on an engine built alongside constructed-but-
  uninstalled obs objects (``Telemetry``, ``QueueTelemetry``, an
  un-installed ``TelemetrySampler``) under ``sys.setprofile`` and
  asserts what the 2 % budget protects: the obs-off drain executes
  **exactly** as many Python-level calls as the plain one (a hook that
  fired, or a wrapper left on the path, shows as a count difference on
  every machine).  The interleaved A/B timing ratio
  ``min(obs_off) / min(plain)`` is still measured and recorded as
  ``extra_info`` for the ledger, but not asserted: on a shared host a
  2 % wall-clock band fails about one run in three on untouched code.
* ``test_obs_off_ns_per_event`` — the obs-off drain as a pedantic
  pytest-benchmark entry, so the figure (and the measured ratio) land
  in the perf ledger (``BENCH_pr10.json``) next to the engine series
  and ``compare_bench.py`` carries them forward.
* ``test_obs_on_sampler_ns_per_event`` — the *enabled* price for
  context: same drain with a 1ms-cadence sampler installed.  Not
  asserted against a budget (enabled cost is a feature, not a
  regression), just recorded.

The structural half of the pin — every observer hook call inside the
queue/engine sits under an ``is not None`` guard — is enforced by
``tools/hotpath_lint.py``; this module is the behavioural half.
"""

from __future__ import annotations

import time

from repro.obs.telemetry import QueueTelemetry, Telemetry, TelemetrySampler
from repro.sim.engine import Engine
from tests.helpers import count_calls

EVENTS = 50_000
ROUNDS = 12


def _noop() -> None:
    pass


def _prefill(engine: Engine) -> None:
    # Same flat 50k-event queue as test_engine_run_loop.py, so the
    # ledger figures are directly comparable.
    push = engine.equeue.push_entry
    for i in range(EVENTS):
        push(i * 1e-6, _noop, ())


def _drain_plain(measure):
    """``measure`` one drain of a plain engine (prefill outside it)."""
    engine = Engine()
    _prefill(engine)
    return measure(engine)


def _drain_obs_off(measure):
    """``measure`` one drain with obs constructed but nothing enabled.

    The telemetry registry, queue observer object, and sampler all
    exist — as they would in a harness built with obs support — but
    none is attached/installed, so the drain must not pay for them.
    """
    engine = Engine()
    telemetry = Telemetry()
    queue_telemetry = QueueTelemetry()
    sampler = TelemetrySampler(engine, telemetry, queue=queue_telemetry)
    assert not sampler.installed and engine.equeue.observer is None
    _prefill(engine)
    measured = measure(engine)
    assert len(telemetry) == 0 and queue_telemetry.pushes == 0
    return measured


def _seconds(engine: Engine) -> float:
    start = time.perf_counter()
    engine.run(max_events=EVENTS + 1)
    elapsed = time.perf_counter() - start
    assert engine.events_executed == EVENTS
    return elapsed


def _python_calls(engine: Engine) -> int:
    """Python-level calls made while draining ``engine`` (exact)."""
    _, calls = count_calls(
        lambda: engine.run(max_events=EVENTS + 1),
        lambda _code: "call",
    )
    assert engine.events_executed == EVENTS
    return calls["call"]


def test_obs_off_drain_within_budget(benchmark):
    """Obs-off drain makes exactly the plain drain's Python calls."""
    plain_calls = _drain_plain(_python_calls)
    obs_off_calls = _drain_obs_off(_python_calls)
    # One call per event (the no-op payload) plus the run's entry
    # frames; a second per-event call would push this past 2x.
    assert EVENTS <= plain_calls < 2 * EVENTS
    assert obs_off_calls == plain_calls, (
        f"obs-off drain made {obs_off_calls} Python-level calls for "
        f"{EVENTS} events, the plain drain {plain_calls}"
    )
    # The wall-clock side of the same comparison: interleaved A/B,
    # min of rounds, recorded in the ledger but not asserted.
    _drain_plain(_seconds)  # one warmup of each shape outside the sample
    _drain_obs_off(_seconds)
    plain: list[float] = []
    obs_off: list[float] = []
    for _ in range(ROUNDS):
        plain.append(_drain_plain(_seconds))
        obs_off.append(_drain_obs_off(_seconds))
    benchmark.pedantic(
        lambda: _drain_obs_off(_seconds), rounds=3, iterations=1
    )
    benchmark.extra_info["python_calls_per_event"] = round(
        obs_off_calls / EVENTS, 4
    )
    benchmark.extra_info["obs_off_over_plain_min_ratio"] = round(
        min(obs_off) / min(plain), 4
    )
    benchmark.extra_info["plain_ns_per_event"] = round(
        min(plain) * 1e9 / EVENTS, 1
    )
    benchmark.extra_info["obs_off_ns_per_event"] = round(
        min(obs_off) * 1e9 / EVENTS, 1
    )


def test_obs_off_ns_per_event(benchmark):
    """The obs-off drain as a ledger entry (comparable to the engine
    series: same 50k flat-queue shape, prefill inside the round)."""

    def setup():
        engine = Engine()
        telemetry = Telemetry()
        sampler = TelemetrySampler(engine, telemetry)
        assert not sampler.installed
        _prefill(engine)
        return (engine,), {}

    def drain(engine: Engine) -> int:
        engine.run(max_events=EVENTS + 1)
        return engine.events_executed

    benchmark.pedantic(drain, setup=setup, rounds=10, iterations=1)
    benchmark.extra_info["ns_per_event"] = round(
        benchmark.stats.stats.mean * 1e9 / EVENTS, 1
    )


def test_obs_on_sampler_ns_per_event(benchmark):
    """The *enabled* price: a 1ms-cadence sampler riding the same
    drain.  Recorded for the ledger, not asserted — enabling telemetry
    legitimately adds events to the schedule."""

    def setup():
        engine = Engine()
        telemetry = Telemetry()
        sampler = TelemetrySampler(engine, telemetry)
        sampler.install(period=0.001, until=EVENTS * 1e-6)
        _prefill(engine)
        return (engine, telemetry), {}

    def drain(engine: Engine, telemetry: Telemetry) -> int:
        engine.run(max_events=2 * EVENTS)
        assert len(telemetry.series("queue.depth")) > 0
        return engine.events_executed

    benchmark.pedantic(drain, setup=setup, rounds=10, iterations=1)
    benchmark.extra_info["ns_per_event"] = round(
        benchmark.stats.stats.mean * 1e9 / EVENTS, 1
    )
