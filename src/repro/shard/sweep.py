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
(``shard.*`` columns) and the aggregate ``admission.*`` fields from the
registered :class:`~repro.metrics.probes.AdmissionProbe`, repeated on
every row of the point (constant within a point, so ``group_by``
over point axes reads them directly).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.exceptions import ConfigurationError
from repro.harness.results import ResultSet, concat
from repro.harness.runner import parallel_map
from repro.metrics.probes import PROBES
from repro.shard.service import ShardSpec, build_sharded_system
from repro.sim.trace import CountingTrace
from repro.stack.builder import StackSpec
from repro.stack.layers import WORKLOADS


@dataclass(frozen=True)
class ShardPoint:
    """One fully resolved point of a :class:`ShardSweepSpec` grid."""

    name: str
    label: str
    stack: StackSpec
    shards: int
    workload: str
    offered: float
    payload: int
    seed: int
    duration: float
    warmup: float
    drain: float
    router_capacity: int
    admission: str
    router_latency: float
    retry_delay: float
    max_events: int | None
    window: float | None = None


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
        drain: Extra simulated time after the window for completions.
        router_capacity / admission / router_latency / retry_delay:
            Router knobs (see :class:`~repro.shard.router.Router`).
        max_events: Safety valve per point.
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
    retry_delay: float = 2e-3
    max_events: int | None = None
    window: float | None = None

    def __post_init__(self) -> None:
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
                            out.append(
                                ShardPoint(
                                    name=self.name,
                                    label=label,
                                    stack=replace(self.stack, seed=seed),
                                    shards=shards,
                                    workload=workload,
                                    offered=offered,
                                    payload=payload,
                                    seed=seed,
                                    duration=self.duration,
                                    warmup=self.warmup,
                                    drain=self.drain,
                                    router_capacity=self.router_capacity,
                                    admission=self.admission,
                                    router_latency=self.router_latency,
                                    retry_delay=self.retry_delay,
                                    max_events=self.max_events,
                                    window=self.window,
                                )
                            )
        return tuple(out)


def run_shard_point(point: ShardPoint) -> ResultSet:
    """Run one point; returns one row per shard (strict-concat schema)."""
    spec = ShardSpec(
        stack=point.stack,
        shards=point.shards,
        router_capacity=point.router_capacity,
        admission=point.admission,
        router_latency=point.router_latency,
        retry_delay=point.retry_delay,
    )
    service = build_sharded_system(
        spec, traces=[CountingTrace() for _ in range(point.shards)]
    )
    router = service.router
    router.measure_from = point.warmup
    router.measure_until = point.duration
    router.deadline = point.duration

    per_shard_rate = point.offered / point.shards
    workloads = []
    for shard, group in enumerate(service.groups):
        workload = WORKLOADS.get(point.workload).factory(
            group,
            throughput=per_shard_rate,
            payload_size=point.payload,
            duration=point.duration,
            sink=router.sink(shard),
        )
        workload.install()
        workloads.append(workload)

    # Sources keep offering load until ``duration``; only after that can
    # an empty router mean the point is over.
    service.engine.run_loaded(
        point.duration,
        point.duration + point.drain,
        max_events=point.max_events,
        stop_when=lambda: router.pending() == 0,
    )

    sent = sum(w.sent for w in workloads)
    admission = PROBES.get("admission").factory(point).finish(service, sent)
    rows = []
    for shard in range(point.shards):
        row: dict[str, Any] = {
            "name": point.name,
            "label": point.label,
            "shards": point.shards,
            "shard": shard,
            "workload": point.workload,
            "offered": point.offered,
            "payload": point.payload,
            "seed": point.seed,
            "admission_policy": point.admission,
            "capacity": point.router_capacity,
            "sent": workloads[shard].sent,
        }
        stats = router.shard_stats(shard)
        for name in sorted(stats):
            row[f"shard.{name}"] = stats[name]
        for name, value in admission.fields:
            row[f"admission.{name}"] = value
        if point.window is not None:
            buckets = router.windowed_stats(point.window, shard=shard)
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
