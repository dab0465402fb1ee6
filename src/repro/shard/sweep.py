"""Declarative sharded sweeps: offered load × shards × workloads.

The single-group counterpart is :mod:`repro.harness.suite` /
:func:`~repro.harness.runner.run_suite`; the sharded service needs its
own point shape (aggregate offered load and admission knobs instead of
per-process throughput, one row *per shard* instead of per run), but
the machinery is deliberately the same: frozen picklable specs, grid
expansion, :func:`~repro.harness.runner.parallel_map` fan-out, rows
merged into one :class:`~repro.harness.results.ResultSet` with the
strict :func:`~repro.harness.results.concat` (every point produces the
same schema, so a mismatch is a bug worth failing on).

Workload names resolve through the workload registry and must be
*aggregate* sources (``meta={"aggregate": True}``): per-replica sources
cannot be interposed behind the router's admission control.

Each point's row set carries the per-shard router counters
(``shard.*`` columns) and the aggregate ``admission.*`` fields of
:meth:`~repro.shard.router.Router.window_stats`, repeated on every row
of the point (constant within a point, so ``group_by`` over point axes
reads them directly).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.exceptions import ConfigurationError
from repro.harness.results import ResultSet, concat
from repro.harness.runner import parallel_map
from repro.shard.service import ShardSpec, build_sharded_system
from repro.sim.trace import CountingTrace
from repro.stack.builder import StackSpec
from repro.stack.layers import WORKLOADS


@dataclass(frozen=True)
class ShardPoint:
    """One point of a :class:`ShardSweepSpec` grid: the sweep plus the
    five axis values that pick the point out of it."""

    spec: ShardSweepSpec
    label: str
    shards: int
    workload: str
    offered: float
    payload: int
    seed: int


@dataclass(frozen=True)
class ShardSweepSpec:
    """A grid over the sharded service's axes.

    Attributes:
        name: Sweep name (a row column, like ``SweepSpec.name``).
        stack: Per-group stack template; its ``seed`` field is replaced
            by the ``seeds`` axis point-wise.
        shards: Shard-count axis.
        workloads: Aggregate workload names (``"poisson"``/``"bursty"``).
        offered_loads: Aggregate offered load axis, messages/second
            across the whole service (split evenly over the shards).
        payloads: Payload sizes, bytes.
        seeds: RNG seeds.
        duration: Sending window per point, simulated seconds.
        warmup: Measurement-window start (arrivals before it are
            excluded from goodput/percentiles).
        drain: Extra simulated time after the window for completions;
            the router's ``deadline`` is ``duration + drain``.
        router_capacity / admission / router_latency: Router knobs
            (see :class:`~repro.shard.service.ShardSpec`).
        max_events: Runaway guard per point: caps the point's engine
            events over its whole run (see ``Engine.run``).
        window: Optional fixed window width (simulated seconds); when
            set, every row additionally carries ``window.<i>.goodput``
            and ``window.<i>.sojourn_p99_ms`` time-series columns from
            :meth:`~repro.shard.router.Router.windowed_stats` — the
            windowed view that makes a saturation knee visible *within*
            a run, not just across the load axis.  The window count is
            a pure function of ``duration``/``warmup``/``window``, so
            all points share one schema (strict-concat safe).
    """

    name: str
    stack: StackSpec
    shards: tuple[int, ...] = (4,)
    workloads: tuple[str, ...] = ("poisson",)
    offered_loads: tuple[float, ...] = (200.0,)
    payloads: tuple[int, ...] = (64,)
    seeds: tuple[int, ...] = (0,)
    duration: float = 0.4
    warmup: float = 0.1
    drain: float = 0.5
    router_capacity: int = 64
    admission: str = "shed"
    router_latency: float = 50e-6
    max_events: int | None = None
    window: float | None = None

    def __post_init__(self) -> None:
        for axis in ("shards", "workloads", "offered_loads", "payloads",
                     "seeds"):
            if not getattr(self, axis):
                raise ConfigurationError(
                    f"ShardSweepSpec.{axis} must be non-empty"
                )
        if any(offered <= 0 for offered in self.offered_loads):
            raise ConfigurationError("offered_loads must be > 0")
        if any(payload < 0 for payload in self.payloads):
            raise ConfigurationError("payloads must be >= 0")
        if self.window is not None and not (
            0 < self.window <= self.duration - self.warmup
        ):
            raise ConfigurationError(
                f"window must be in (0, duration - warmup], got "
                f"{self.window}"
            )
        for workload in self.workloads:
            entry = WORKLOADS.get(workload)
            if not entry.get("aggregate"):
                raise ConfigurationError(
                    f"workload {workload!r} is not an aggregate source; "
                    "sharded sweeps need one arrival process per shard "
                    "(registered with meta={'aggregate': True}), got a "
                    "per-replica generator"
                )
        if not 0 <= self.warmup < self.duration:
            raise ConfigurationError(
                f"warmup must be in [0, duration), got {self.warmup}"
            )
        if self.drain < 0:
            raise ConfigurationError(f"drain must be >= 0, got {self.drain}")
        for shards in self.shards:  # the spec run_shard_point builds
            ShardSpec(self.stack, shards, self.router_capacity,
                      self.admission, self.router_latency)

    def points(self) -> tuple[ShardPoint, ...]:
        """Expand the grid: shards → workload → seed → load → payload."""
        out = []
        for shards in self.shards:
            for workload in self.workloads:
                for seed in self.seeds:
                    for offered in self.offered_loads:
                        for payload in self.payloads:
                            label = (
                                f"k{shards}-{workload}-"
                                f"{offered:g}mps-{payload}B-s{seed}"
                            )
                            out.append(ShardPoint(
                                self, label, shards, workload, offered,
                                payload, seed,
                            ))
        return tuple(out)


def run_shard_point(point: ShardPoint) -> ResultSet:
    """Run one point; returns one row per shard (strict-concat schema)."""
    sweep = point.spec
    spec = ShardSpec(replace(sweep.stack, seed=point.seed), point.shards,
                     sweep.router_capacity, sweep.admission,
                     sweep.router_latency)
    service = build_sharded_system(
        spec, traces=[CountingTrace() for _ in range(point.shards)]
    )
    router = service.router
    router.measure_from = sweep.warmup
    router.measure_until = sweep.duration
    router.deadline = sweep.duration + sweep.drain

    per_shard_rate = point.offered / point.shards
    workloads = []
    for shard, group in enumerate(service.groups):
        workload = WORKLOADS.get(point.workload).factory(
            group,
            throughput=per_shard_rate,
            payload_size=point.payload,
            duration=sweep.duration,
            sink=router.sink(shard),
        )
        workload.install()
        workloads.append(workload)

    # Sources keep offering load until ``duration``; only after that can
    # an empty router mean the point is over.  One lifetime cap.
    engine = service.engine
    engine.run(until=sweep.duration, max_events=sweep.max_events)
    engine.run(until=router.deadline, max_events=sweep.max_events,
               stop_when=lambda: router.pending() == 0)

    admission = router.window_stats()
    # Extracted: the router's counters and completion log outlive this.
    service.close()
    rows = []
    for shard in range(point.shards):
        row: dict[str, Any] = {
            "name": sweep.name,
            "label": point.label,
            "shards": point.shards,
            "shard": shard,
            "workload": point.workload,
            "offered": point.offered,
            "payload": point.payload,
            "seed": point.seed,
            "admission_policy": sweep.admission,
            "capacity": sweep.router_capacity,
            "sent": workloads[shard].sent,
        }
        stats = router.shard_stats(shard)
        for name in sorted(stats):
            row[f"shard.{name}"] = stats[name]
        for name in sorted(admission):
            row[f"admission.{name}"] = admission[name]
        if sweep.window is not None:
            buckets = router.windowed_stats(sweep.window, shard=shard)
            for index, bucket in enumerate(buckets):
                for name in ("goodput", "sojourn_p99_ms"):
                    row[f"window.{index}.{name}"] = bucket[name]
        rows.append(row)
    return ResultSet({name: [row[name] for row in rows] for name in rows[0]})


def run_shard_sweep(
    spec: ShardSweepSpec, processes: int | None = None
) -> ResultSet:
    """Run every point of the grid; one merged per-shard ResultSet.

    Points fan out over :func:`~repro.harness.runner.parallel_map`
    (each point is a whole k-shard simulation, so points — not shards —
    are the parallel unit).  The per-point row sets share one schema by
    construction and are merged with the strict
    :func:`~repro.harness.results.concat`.
    """
    slices = parallel_map(run_shard_point, spec.points(), processes)
    return concat(slices)
