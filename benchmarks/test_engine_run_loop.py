"""Micro-benchmark: ns per event through the engine's event store.

Every figure, sweep and exploration run is a drain of the one binary
heap in ``repro.sim.equeue``, so its per-event cost is the simulator's
constant factor; this module keeps that figure, and the handful of
shapes around it, in the perf ledger (``BENCH_*.json``, produced with
``--bench-json``; see the README's Performance section).
``benchmark.extra_info["ns_per_event"]`` records each for the machine
the suite runs on:

* ``test_run_loop_drain_ns_per_event`` — the **drain alone** (prefill
  outside the timed region): pop + tombstone check + dispatch per
  event over a flat heap of 50k no-op events.
* ``test_run_loop_ns_per_event`` — the same queue prefilled through
  ``EventQueue.push_entry`` (one bare list per event: what resource
  completions and frame deliveries pay) plus the drain.
* ``test_run_loop_ns_per_event_handles`` — prefilled through
  ``schedule_at`` instead: every event is a cancelable ``EventHandle``.
* ``test_schedule_run_throughput`` — a rolling population of timers
  rescheduled from inside callbacks, a slice of them cancelled.
* ``test_timer_churn_ns_per_event`` — heartbeat-detector churn: 32
  watchdogs cancelled and re-armed on every heartbeat, so the heap
  carries tombstones and compacts as it drains.
* ``test_controlled_loop_ns_per_event`` — an installed pure-default
  scheduler (neither ``decide`` nor ``wants`` overridden) runs on the
  drain; ``test_controlled_singleton_ns_per_event`` measures the real
  controlled loop under the singleton ``wants`` fast path (what
  ``ExploreScheduler`` pays on most of its steps).  Equivalence with
  the fast paths disabled is pinned by ``tests/explore/test_fast_path.py``.
"""

from __future__ import annotations

from repro.sim.engine import Engine, Scheduler

EVENTS = 50_000


def _noop() -> None:
    pass


def _prefill(engine: Engine) -> None:
    # A flat queue of distinct-time fire-and-forget events: the loop
    # cost itself, with no callback work and no handles.
    push = engine.equeue.push_entry
    for i in range(EVENTS):
        push(i * 1e-6, _noop, ())


def _prefill_handles(engine: Engine) -> None:
    # The same flat queue through ``schedule_at``: every event is a
    # cancelable handle.
    for i in range(EVENTS):
        engine.schedule_at(i * 1e-6, _noop)


def _drain_default() -> int:
    engine = Engine()
    _prefill(engine)
    engine.run(max_events=EVENTS + 1)
    return engine.events_executed


def _drain_handles() -> int:
    engine = Engine()
    _prefill_handles(engine)
    engine.run(max_events=EVENTS + 1)
    return engine.events_executed


def _drain_controlled() -> int:
    engine = Engine()
    engine.install_scheduler(Scheduler())  # pure default: fused drain
    _prefill(engine)
    engine.run(max_events=EVENTS + 1)
    return engine.events_executed


class _SingletonFastPath(Scheduler):
    """Overrides ``wants`` (never applicable): the engine runs the real
    controlled loop, but every singleton ready set fires without a
    ``decide`` consultation — the ``ExploreScheduler`` steady state on
    a no-deviation schedule."""

    def wants(self, ready) -> bool:
        return False


def _drain_controlled_singleton() -> int:
    engine = Engine()
    engine.install_scheduler(_SingletonFastPath())
    _prefill_handles(engine)
    engine.run(max_events=EVENTS + 1)
    return engine.events_executed


THROUGHPUT_EVENTS = 20_000


def _schedule_run() -> int:
    engine = Engine()
    fired = 0

    def tick(depth: int) -> None:
        nonlocal fired
        fired += 1
        if depth > 0:
            # Reschedule from inside the callback, as protocol layers do.
            engine.schedule(0.001, tick, depth - 1)

    handles = [
        engine.schedule(0.0005 * (i % 97), tick, 9)
        for i in range(THROUGHPUT_EVENTS // 10)
    ]
    for handle in handles[::7]:
        handle.cancel()
    engine.run(max_events=THROUGHPUT_EVENTS * 2)
    return fired


PROCESSES = 32
ROUNDS = 2_000
TIMEOUT = 0.060          # re-armed watchdog, heartbeat-FD style
INTERVAL = 0.020         # heartbeat period per process


def _churn() -> tuple[int, int]:
    engine = Engine()
    fired = 0
    expired = 0
    watchdogs: list = [None] * PROCESSES

    def heartbeat(pid: int, remaining: int) -> None:
        nonlocal fired
        fired += 1
        # Re-arm the watchdog: cancel the pending timeout, push a new
        # one TIMEOUT ahead — the churn under test.
        watchdog = watchdogs[pid]
        if watchdog is not None:
            watchdog.cancel()
        watchdogs[pid] = engine.schedule(TIMEOUT, expire, pid)
        if remaining > 0:
            engine.schedule(INTERVAL, heartbeat, pid, remaining - 1)

    def expire(pid: int) -> None:
        nonlocal expired
        expired += 1

    for pid in range(PROCESSES):
        engine.schedule(INTERVAL * (pid / PROCESSES), heartbeat, pid, ROUNDS)
    engine.run(max_events=PROCESSES * ROUNDS * 3)
    return fired, expired


def _note_ns(benchmark, events: int = EVENTS) -> None:
    benchmark.extra_info["ns_per_event"] = round(
        benchmark.stats.stats.mean * 1e9 / events, 1
    )


def test_run_loop_drain_ns_per_event(benchmark):
    """The drain alone: prefill outside the timed region, so the
    figure is (pop + dispatch) per event."""

    def setup():
        engine = Engine()
        _prefill(engine)
        return (engine,), {}

    def drain(engine: Engine) -> int:
        engine.run(max_events=EVENTS + 1)
        return engine.events_executed

    benchmark.pedantic(drain, setup=setup, rounds=10, iterations=1)
    _note_ns(benchmark)


def test_run_loop_ns_per_event(benchmark):
    """Fire-and-forget scheduling plus the drain."""
    executed = benchmark(_drain_default)
    assert executed == EVENTS
    _note_ns(benchmark)


def test_run_loop_ns_per_event_handles(benchmark):
    """Cancelable-handle scheduling plus the drain."""
    executed = benchmark(_drain_handles)
    assert executed == EVENTS
    _note_ns(benchmark)


def test_schedule_run_throughput(benchmark):
    fired = benchmark(_schedule_run)
    assert fired > THROUGHPUT_EVENTS // 2
    _note_ns(benchmark, fired)


def test_timer_churn_ns_per_event(benchmark):
    fired, expired = benchmark(_churn)
    assert fired == PROCESSES * (ROUNDS + 1)
    # Every watchdog but the final per-process one was cancelled in time.
    assert expired == PROCESSES
    _note_ns(benchmark, fired)


def test_controlled_loop_ns_per_event(benchmark):
    """Installed pure-default scheduler: the drain-delegation path."""
    executed = benchmark(_drain_controlled)
    assert executed == EVENTS
    _note_ns(benchmark)


def test_controlled_singleton_ns_per_event(benchmark):
    """The controlled loop under the singleton ``wants`` skip."""
    executed = benchmark(_drain_controlled_singleton)
    assert executed == EVENTS
    _note_ns(benchmark)


def test_default_scheduler_preserves_order_and_results():
    """The controlled loop with the base Scheduler replays the default
    loop's (time, seq) order exactly."""
    order_default: list[int] = []
    order_controlled: list[int] = []

    def drive(sink: list[int], controlled: bool) -> None:
        engine = Engine()
        if controlled:
            engine.install_scheduler(Scheduler())
        engine.schedule(0.2, sink.append, 3)
        engine.schedule(0.1, sink.append, 1)
        engine.schedule(0.1, sink.append, 2)
        cancelled = engine.schedule(0.15, sink.append, 99)
        cancelled.cancel()
        engine.run()

    drive(order_default, controlled=False)
    drive(order_controlled, controlled=True)
    assert order_default == order_controlled == [1, 2, 3]
