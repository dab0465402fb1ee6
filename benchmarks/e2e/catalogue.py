"""The metric and workload catalogue: names, units, clocks, bounds.

One table serves the printed report, ``compare``, the README and the
consistency check against the root ``BENCHMARK.json``.  Later issues
refer to these names verbatim.

Clocks: ``sim`` is simulated time — what the paper's users read, exact
under a seed.  ``host`` is what sweep and explorer users wait for —
noisy on a shared machine.  ``count`` is an event count that repeats
exactly across processes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Relative worsening of ``wall_s`` that counts as a regression:
#: max(0.15, 1.5 x the largest same-code min-to-min gap over the full
#: sets run) = 1.5 x 0.285 — the evidence is in README.md, "Noise
#: evidence".
WALL_BOUND = 0.43

#: The largest bound the ``BENCHMARK.json`` contract accepts.  A metric's
#: bound there is ``min(Metric.bound, CONTRACT_MAX_BOUND)``.
CONTRACT_MAX_BOUND = 0.25

#: The layers are the packages of ``src/repro``; anything else the
#: profile sees (unlisted repro modules, the benchmark's own frames) is
#: ``other``.
LAYERS = (
    "sim", "net", "failure", "broadcast", "consensus", "abcast", "core",
    "workload", "metrics", "checkers", "harness", "shard", "explore",
    "stack", "obs",
)
OTHER = "other"

WORKLOADS = {
    "fig3_sweep": (
        "the paper's Figure 3 through run_suite: 20 short checked points, "
        "so harness, stack, metrics and the protocol layers work while "
        "consensus tables stay small"
    ),
    "long_crash": (
        "one 12 s loaded run with heartbeat FD and a coordinator crash: "
        "the only workload where run length, timer churn and recovery show"
    ),
    "shard_ramp": (
        "16 shards on one engine ramped past saturation plus a bursty "
        "delay point: large queue, heavy net, the only user of shard"
    ),
    "explore_hunt": (
        "fixed-work model checking of faulty-ids and indirect: thousands of "
        "rebuild-and-replay cycles, so explore, stack and checkers dominate"
    ),
}


FIG3, LONG, SHARD, EXPLORE = WORKLOADS

_MESSAGES = (FIG3, LONG, SHARD)
_PROBED = (FIG3, LONG)


@dataclass(frozen=True)
class Metric:
    """One catalogued metric.

    ``bound`` is the relative worsening that counts as a regression
    (``0.0`` = any worsening): the one value ``compare`` uses and
    ``BENCHMARK.json`` is written from.  Per-layer metrics carry none.
    """

    name: str
    unit: str
    better: str
    clock: str
    what: str
    bound: float | None = None
    #: Workloads the metric is defined on; it is omitted elsewhere.
    on: tuple[str, ...] = tuple(WORKLOADS)


END_TO_END = (
    Metric("setup_s", "s", "lower", "host",
           "child start to body start: interpreter, import repro, spec "
           "construction, one 50-message warm-up run; median of N", 0.25),
    Metric("wall_s", "s", "lower", "host",
           "perf_counter around the untraced body; minimum of N", WALL_BOUND),
    Metric("prof_calls", "Mcalls", "lower", "count",
           "function-call events cProfile records over the traced body",
           0.01),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "largest child ru_maxrss over the untraced repeats", 0.15),
    Metric("latency_mean_ms", "ms", "lower", "sim",
           "abroadcast to adeliver. fig3_sweep: n=5 indirect at 800 msg/s; "
           "long_crash: sends in [0.2 s, crash - 0.2 s); shard_ramp: router "
           "sojourn at 16000 msg/s", 0.01,
           on=_MESSAGES),
    Metric("latency_p50_ms", "ms", "lower", "sim", "same windows", 0.01,
           on=_MESSAGES),
    Metric("latency_p99_ms", "ms", "lower", "sim",
           "same windows; the sample count is printed beside it", 0.01,
           on=_MESSAGES),
    Metric("max_rate_under_slo", "msg/s", "higher", "sim",
           "fig3_sweep: highest n=5 indirect rate with p99 <= 12 ms and "
           "nothing undelivered; shard_ramp: highest Poisson rate with "
           "sojourn p99 <= 25 ms and shed share <= 1 %", 0.01,
           on=(FIG3, SHARD)),
    Metric("goodput_msgs_per_s", "msg/s", "higher", "sim",
           "shard_ramp: summed shard goodput at 24000 msg/s offered, i.e. "
           "capacity", 0.01,
           on=(SHARD,)),
    Metric("recovery_ms", "ms", "lower", "sim",
           "long_crash: crash instant to the adeliver that ends the longest "
           "delivery-free interval at the lowest-id survivor", 0.01,
           on=(LONG,)),
    Metric("failed_share", "ratio", "lower", "sim",
           "(undelivered at survivors + shed + delayed-then-expired + "
           "errored schedules) / attempted", 0.0),
)

_TIMED = (
    Metric("stack.build_s", "s", "lower", "host",
           "time inside build_system / build_sharded_system, untraced"),
    Metric("sim.run_s", "s", "lower", "host",
           "time inside Engine.run, untraced"),
    Metric("checkers.check_s", "s", "lower", "host",
           "time inside the checkers' check_all, untraced"),
    Metric("harness.overhead_s", "s", "lower", "host",
           "fig3_sweep: suite wall minus the points' own wall_seconds",
           on=(FIG3,)),
    Metric("trace.overhead_ratio", "ratio", "lower", "host",
           "traced body wall / untraced body wall"),
)

_COLUMNS = (
    Metric("sim.events", "count", "lower", "count",
           "engine events executed over the body"),
    Metric("sim.events_per_msg", "count", "lower", "count",
           "events per message offered",
           on=_MESSAGES),
    Metric("sim.wall_us_per_event", "us", "lower", "host",
           "sim.run_s / sim.events"),
    Metric("sim.cpu_utilisation_max", "ratio", "lower", "sim",
           "busiest simulated CPU over the points",
           on=_PROBED),
    Metric("net.frames_per_msg", "count", "lower", "count",
           "wire frames per message sent",
           on=_PROBED),
    Metric("net.bytes_per_msg", "B", "lower", "count",
           "wire bytes per message sent",
           on=_PROBED),
    Metric("net.medium_utilisation_max", "ratio", "lower", "sim",
           "busiest contention segment over the points",
           on=_PROBED),
    Metric("net.frames_dropped", "count", "lower", "count",
           "frames the network dropped (crash, faults)",
           on=_PROBED),
    Metric("broadcast.data_frames_per_msg", "count", "lower", "count",
           "payload-carrying (*.data) frames per message sent",
           on=_PROBED),
    Metric("consensus.instances_decided", "count", "lower", "count",
           "distinct consensus instances decided",
           on=_PROBED),
    Metric("consensus.msgs_per_instance", "count", "higher", "count",
           "messages sent per decided instance (batching)",
           on=_PROBED),
    Metric("consensus.first_round_share", "ratio", "higher", "count",
           "share of instances decided in round 1",
           on=_PROBED),
    Metric("consensus.decision_round_max", "count", "lower", "count",
           "highest decision round of any instance",
           on=_PROBED),
    Metric("consensus.control_frames_per_msg", "count", "lower", "count",
           "non-data frames per message sent",
           on=_PROBED),
    Metric("consensus.indirect_overhead_pct", "%", "lower", "sim",
           "fig3_sweep: indirect over faulty mean latency at n=5, 800 msg/s",
           on=(FIG3,)),
    Metric("consensus.degraded_latency_mean_ms", "ms", "lower", "sim",
           "long_crash: mean latency of sends at or after crash + 1 s",
           on=(LONG,)),
    Metric("failure.suspicions_raised", "count", "lower", "count",
           "suspicions raised by all detectors",
           on=_PROBED),
    Metric("failure.suspicions_retracted", "count", "lower", "count",
           "suspicions retracted (wrong suspicions)",
           on=_PROBED),
    Metric("harness.points", "count", "higher", "count",
           "sweep points run and checked",
           on=(FIG3,)),
    Metric("shard.admitted", "count", "higher", "count",
           "operations admitted over the four points",
           on=(SHARD,)),
    Metric("shard.shed_share", "ratio", "lower", "sim",
           "shed / offered over the Poisson ramp",
           on=(SHARD,)),
    Metric("shard.delayed", "count", "lower", "count",
           "operations parked at least once at the bursty point",
           on=(SHARD,)),
    Metric("shard.sojourn_p50_ms", "ms", "lower", "sim",
           "router sojourn median at 16000 msg/s",
           on=(SHARD,)),
    Metric("shard.bursty_goodput_msgs_per_s", "msg/s", "higher", "sim",
           "summed goodput at the bursty 12000 msg/s delay point",
           on=(SHARD,)),
    Metric("shard.bursty_sojourn_p99_ms", "ms", "lower", "sim",
           "sojourn p99 at the bursty point, parked time included",
           on=(SHARD,)),
    Metric("explore.schedules", "count", "higher", "count",
           "schedules executed by both hunts",
           on=(EXPLORE,)),
    Metric("explore.pruned_share", "ratio", "higher", "count",
           "fingerprint cut-offs / schedules",
           on=(EXPLORE,)),
    Metric("explore.violations", "count", "higher", "count",
           "violating schedules found on faulty-ids (the section 2.2 bug)",
           on=(EXPLORE,)),
    Metric("explore.faulty_schedules_per_s", "1/s", "higher", "host",
           "faulty-ids hunt throughput",
           on=(EXPLORE,)),
    Metric("explore.indirect_schedules_per_s", "1/s", "higher", "host",
           "indirect hunt throughput",
           on=(EXPLORE,)),
)


def _traced() -> tuple[Metric, ...]:
    out = []
    for layer in LAYERS + (OTHER,):
        out.append(Metric(f"{layer}.self_share", "ratio", "lower", "host",
                          "share of profiled self time"))
        out.append(Metric(f"{layer}.calls_in", "count", "lower", "count",
                          "calls into the layer from another layer"))
        out.append(Metric(f"{layer}.calls", "count", "lower", "count",
                          "calls to functions of the layer"))
    return tuple(out)


PER_LAYER = _traced() + _TIMED + _COLUMNS

#: What the root BENCHMARK.json can gate on.  Its driver wants every
#: end-to-end metric from an untraced run of *every* workload, never 0:
#: that is exactly the host-clock metrics.  The other eight exist on
#: some workloads only, need the profiler, or may be 0; ``run.py
#: --trace 1`` prints them with the per-layer metrics, unbounded, so
#: ``compare`` is the only gate on them (README.md, "The root
#: BENCHMARK.json").
CONTRACT_END_TO_END = tuple(m for m in END_TO_END if m.clock == "host")
CONTRACT_PER_LAYER = tuple(
    m for m in END_TO_END if m not in CONTRACT_END_TO_END
) + PER_LAYER

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}
