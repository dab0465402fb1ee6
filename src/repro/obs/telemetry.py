"""Runtime telemetry: counters and gauges on a simulated-time cadence.

Two data sources, both existing seams — no hot-path edits:

* the :class:`~repro.sim.equeue.EventQueue` **observer** slot
  (:class:`QueueTelemetry` counts pushes/cancels always and
  fire/defer/block/release when a controlled run consults observers);
* polled engine/router state, sampled by :class:`TelemetrySampler` on
  a chained simulated-time timer (queue depth, events executed,
  per-shard admitted/shed/in-flight, windowed goodput and sojourn
  percentiles).

**The disabled path is a strict no-op**: with no observer installed
and no sampler scheduled, the engine's drain loop executes byte-for-
byte the same code as before this module existed — the observer slot
was already there and the fused drain never consults it.  That is
pinned by ``tests/obs/test_telemetry.py::TestDisabledPath`` (identical
Python-level call counts with and without the obs objects) and the
guard style by ``tools/hotpath_lint.py``.

Every class here is ``__slots__``-ed (the hotpath lint asserts it):
an *enabled* sampler still runs inside the simulation loop.
"""

from __future__ import annotations

from typing import Any

from repro.core.exceptions import ConfigurationError
from repro.shard.router import completion_stats


class TimeSeries:
    """One named series of ``(simulated time, value)`` samples."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def add(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def last(self) -> float | None:
        return self.values[-1] if self.values else None

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))


class Telemetry:
    """A registry of named time series (created on first record)."""

    __slots__ = ("_series",)

    def __init__(self) -> None:
        self._series: dict[str, TimeSeries] = {}

    def series(self, name: str) -> TimeSeries:
        found = self._series.get(name)
        if found is None:
            found = self._series[name] = TimeSeries(name)
        return found

    def record(self, name: str, time: float, value: float) -> None:
        self.series(name).add(time, value)

    def get(self, name: str) -> TimeSeries | None:
        return self._series.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._series))

    def items(self):
        """(name, series) pairs in name order."""
        for name in sorted(self._series):
            yield name, self._series[name]

    def __len__(self) -> int:
        return len(self._series)


class QueueTelemetry:
    """Event-queue observer counting scheduler-visible transitions.

    Install with :func:`attach_queue_telemetry`.  ``on_push`` /
    ``on_cancel`` fire on every schedule/cancel; ``on_fire`` /
    ``on_defer`` / ``on_block`` / ``on_release`` only when the engine
    runs its controlled (scheduler-consulted) loop — the fused drain
    never consults the observer, by design.
    """

    __slots__ = ("pushes", "cancels", "fires", "defers", "blocks", "releases")

    def __init__(self) -> None:
        self.pushes = 0
        self.cancels = 0
        self.fires = 0
        self.defers = 0
        self.blocks = 0
        self.releases = 0

    def on_push(self, record: Any) -> None:
        self.pushes += 1

    def on_cancel(self, record: Any) -> None:
        self.cancels += 1

    def on_fire(self, record: Any) -> None:
        self.fires += 1

    def on_defer(self, record: Any) -> None:
        self.defers += 1

    def on_block(self, record: Any) -> None:
        self.blocks += 1

    def on_release(self, record: Any) -> None:
        self.releases += 1


def attach_queue_telemetry(engine: Any, telemetry: QueueTelemetry) -> None:
    """Install ``telemetry`` as the engine queue's observer.

    The observer slot is single-occupancy (the explorer uses it during
    controlled runs); occupying an occupied slot is refused rather than
    silently chained.
    """
    queue = engine.equeue
    if queue.observer is not None:
        raise ConfigurationError(
            "the event queue already has an observer installed; "
            "queue telemetry cannot be attached to this run"
        )
    queue.observer = telemetry


class TelemetrySampler:
    """Chained simulated-time timer polling engine/router gauges.

    Nothing happens until :meth:`install` is called; an un-installed
    sampler costs the simulation exactly zero events.  Once installed,
    one callback per ``period`` records:

    * ``queue.depth`` — pending events (O(1) engine counter);
    * ``queue.scheduled`` (cumulative pushes — the queue's live
      sequence counter) and ``queue.scheduled_per_tick`` (delta over
      the period); the engine's ``events_executed`` counter is *not*
      sampled because the fused drain flushes it only on exit —
      mid-run reads would be stale zeros;
    * with :class:`QueueTelemetry` attached: cumulative
      ``queue.pushes`` / ``queue.cancels``;
    * with a :class:`~repro.shard.router.Router`: per shard ``i``,
      cumulative ``shard<i>.admitted`` / ``shard<i>.shed``, the
      ``shard<i>.inflight`` gauge, and windowed
      ``shard<i>.goodput`` (completions per second over the period)
      and ``shard<i>.sojourn_p99_ms`` (over the period's completions),
      both from :func:`~repro.shard.router.completion_stats` over the
      completions logged since the previous tick.

    The timer is an ordinary engine event, so sampling is part of the
    deterministic schedule: two runs with the same spec and the same
    sampler produce bit-identical series (and bit-identical everything
    else, in both trace modes).
    """

    __slots__ = (
        "telemetry",
        "engine",
        "router",
        "queue",
        "period",
        "until",
        "installed",
        "_last_scheduled",
        "_last_completed",
    )

    def __init__(
        self,
        engine: Any,
        telemetry: Telemetry,
        router: Any = None,
        queue: QueueTelemetry | None = None,
    ) -> None:
        self.engine = engine
        self.telemetry = telemetry
        self.router = router
        self.queue = queue
        self.period = 0.0
        self.until = 0.0
        self.installed = False
        self._last_scheduled = 0
        self._last_completed: list[int] = []

    def install(self, period: float, until: float) -> None:
        """Start sampling every ``period`` seconds until ``until``."""
        if self.installed:
            raise ConfigurationError("sampler already installed")
        if period <= 0:
            raise ConfigurationError(f"period must be > 0, got {period}")
        self.period = period
        self.until = until
        self._last_scheduled = self.engine.equeue.seq
        if self.router is not None:
            self._last_completed = [0] * len(self.router.groups)
        self.engine.schedule(period, self._tick)
        self.installed = True

    def _tick(self) -> None:
        engine = self.engine
        telemetry = self.telemetry
        now = engine.now
        telemetry.record("queue.depth", now, float(engine.pending()))
        scheduled = engine.equeue.seq
        telemetry.record("queue.scheduled", now, float(scheduled))
        telemetry.record(
            "queue.scheduled_per_tick",
            now,
            float(scheduled - self._last_scheduled),
        )
        self._last_scheduled = scheduled
        queue = self.queue
        if queue is not None:
            telemetry.record("queue.pushes", now, float(queue.pushes))
            telemetry.record("queue.cancels", now, float(queue.cancels))
        router = self.router
        if router is not None:
            for shard in range(len(router.groups)):
                prefix = f"shard{shard}"
                telemetry.record(
                    f"{prefix}.admitted", now, float(router.admitted[shard])
                )
                telemetry.record(
                    f"{prefix}.shed", now, float(router.shed[shard])
                )
                telemetry.record(
                    f"{prefix}.inflight", now, float(router.inflight(shard))
                )
                completions = router.completions[shard]
                done = len(completions)
                stats = completion_stats(
                    completions[self._last_completed[shard]:done], self.period
                )
                self._last_completed[shard] = done
                telemetry.record(f"{prefix}.goodput", now, stats["goodput"])
                telemetry.record(
                    f"{prefix}.sojourn_p99_ms", now, stats["sojourn_p99_ms"]
                )
        if now + self.period <= self.until + 1e-12:
            engine.schedule(self.period, self._tick)
