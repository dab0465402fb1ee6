"""Runtime telemetry: counters and gauges on a simulated-time cadence.

One data source, polled — no hot-path edits: engine and router state,
sampled by :class:`TelemetrySampler` on a chained simulated-time timer
(queue depth, events scheduled, per-shard admitted/shed/in-flight,
windowed goodput and sojourn percentiles).

**The disabled path is a strict no-op**: with no sampler scheduled, the
engine's drain loop executes byte-for-byte the same code as before this
module existed.  That is pinned by
``tests/obs/test_telemetry.py::TestDisabledPath`` (identical
Python-level call counts with and without the obs objects).

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
    ) -> None:
        self.engine = engine
        self.telemetry = telemetry
        self.router = router
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
                arrivals = router.arrivals[shard]
                done = len(arrivals)
                window = slice(self._last_completed[shard], done)
                stats = completion_stats(
                    zip(arrivals[window], router.sojourns[shard][window]),
                    self.period,
                )
                self._last_completed[shard] = done
                telemetry.record(f"{prefix}.goodput", now, stats["goodput"])
                telemetry.record(
                    f"{prefix}.sojourn_p99_ms", now, stats["sojourn_p99_ms"]
                )
        if now + self.period <= self.until + 1e-12:
            engine.schedule(self.period, self._tick)
