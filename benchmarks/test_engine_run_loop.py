"""Micro-benchmark: ns per event through the engine's event store.

Every figure, sweep and exploration run is a drain of the one binary
heap in ``repro.sim.equeue``, so its per-event cost is the simulator's
constant factor.  The end-to-end benchmark (``benchmarks/e2e``) only
sees it mixed with every layer above, so this module times the drain
alone: a flat heap of 50k distinct-time no-op events, prefilled
outside the timed region, so the figure is pop + tombstone check +
dispatch per event.  ``benchmark.extra_info["ns_per_event"]`` records
it for the machine the suite runs on.
"""

from __future__ import annotations

from repro.sim.engine import Engine

EVENTS = 50_000


def _noop() -> None:
    pass


def test_run_loop_drain_ns_per_event(benchmark):
    def setup():
        engine = Engine()
        push = engine.equeue.push_entry
        for i in range(EVENTS):
            push(i * 1e-6, _noop, ())
        return (engine,), {}

    def drain(engine: Engine) -> int:
        engine.run(max_events=EVENTS + 1)
        return engine.events_executed

    benchmark.pedantic(drain, setup=setup, rounds=10, iterations=1)
    benchmark.extra_info["ns_per_event"] = round(
        benchmark.stats.stats.mean * 1e9 / EVENTS, 1
    )
