"""One experiment = one simulated run with a measured steady state.

The runner mirrors the methodology of Section 4: a symmetric workload at
a fixed global throughput and payload size, measured over the steady
state (warmup and cooldown excluded) of a failure-free run.

Measurement is delegated to **metric probes**
(:mod:`repro.metrics.probes`): the spec's ``metrics=(...)`` axis names
probes in the :data:`~repro.metrics.probes.PROBES` registry, the run's
trace calls every subscribed probe from its own ``record`` — one call
per event per probe, identically in both trace modes — and the result
carries each probe's :class:`~repro.metrics.probes.MetricValue` under
its registry name.  Adding a new measurement to the pipeline is a probe
registration, not an edit to this module.

Saturated configurations (offered load beyond the stack's capacity) are
reported honestly: the run is still bounded in simulated time, messages
that never made it out are counted in ``undelivered``, and the latency
probe covers what was delivered — exactly what a wall-clock-bounded
measurement on the real cluster would have produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.checkers.abcast import AbcastChecker
from repro.core.config import SystemConfig
from repro.core.exceptions import ConfigurationError
from repro.failure.crash import CrashSchedule
from repro.metrics.probes import (
    DEFAULT_PROBES,
    MetricValue,
    build_probes,
    validate_probe_names,
)
from repro.sim.trace import CountingTrace, Trace
from repro.stack.builder import StackSpec, build_system
from repro.stack.layers import WORKLOADS


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully described performance run.

    Attributes:
        name: Label used in reports.
        stack: The protocol stack to measure.
        throughput: Global abroadcast rate (messages/second).
        payload: Payload size in bytes.
        duration: Sending window in simulated seconds.
        warmup: Messages sent before this time are not measured.
        drain: Extra simulated seconds after the sending window for
            in-flight messages to be delivered.
        arrivals: ``"poisson"`` | ``"uniform"``.
        workload: Name of the workload generator in the ``workload``
            layer registry: ``"symmetric"`` (the paper's open-loop
            source) or ``"closed-loop"`` (each client waits for its own
            adelivery before sending again).
        metrics: Names of the metric probes to run, resolved through
            :data:`repro.metrics.probes.PROBES` (unknown names fail at
            construction with a did-you-mean suggestion).  Every probe's
            output lands in ``ExperimentResult.metrics`` under its
            name; the defaults cover the paper's measurements.
        label: Presentation-only curve/grid label (set by
            :class:`~repro.harness.suite.SweepSpec` expansion; excluded
            from the result-cache key, like ``name``).
        safety_checks: Run the (safety-only) abcast checks on the run;
            on by default — a performance number from an incorrect run
            is worthless.  The checker is a streaming sink next to the
            probes, so it checks either trace mode alike.
        trace_mode: ``"full"`` retains the complete event trace (a
            :class:`~repro.sim.trace.Trace`, for post-hoc analysis);
            ``"metrics"`` retains no event list (a
            :class:`~repro.sim.trace.CountingTrace`) — the cheap mode
            for long sweeps.  Either trace calls the subscribed probes
            and checker from its own ``record``, so they observe the
            same stream and report identical values.
        max_events: Engine runaway guard.
    """

    name: str
    stack: StackSpec
    throughput: float
    payload: int
    duration: float
    warmup: float = 0.1
    drain: float = 1.0
    arrivals: str = "poisson"
    workload: str = "symmetric"
    metrics: tuple[str, ...] = DEFAULT_PROBES
    label: str = ""
    safety_checks: bool = True
    trace_mode: str = "full"
    max_events: int = 50_000_000

    def __post_init__(self) -> None:
        WORKLOADS.get(self.workload)  # unknown names fail here, with a hint
        object.__setattr__(
            self, "metrics", validate_probe_names(self.metrics)
        )
        if self.trace_mode not in ("full", "metrics"):
            raise ConfigurationError(
                f"unknown trace_mode {self.trace_mode!r}; "
                "choose 'full' or 'metrics'"
            )
        if self.throughput <= 0:
            raise ConfigurationError(
                f"throughput must be > 0, got {self.throughput}"
            )
        if self.payload < 0:
            raise ConfigurationError(f"payload must be >= 0, got {self.payload}")
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {self.duration}")
        if not 0 <= self.warmup < self.duration:
            raise ConfigurationError(
                f"warmup must be in [0, duration) so the measurement window "
                f"is non-empty, got warmup={self.warmup}, "
                f"duration={self.duration}"
            )
        if self.drain < 0:
            raise ConfigurationError(f"drain must be >= 0, got {self.drain}")
        if self.max_events < 1:
            raise ConfigurationError(
                f"max_events must be >= 1, got {self.max_events}"
            )


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one experiment.

    ``metrics`` is the measurement payload: one
    :class:`~repro.metrics.probes.MetricValue` per probe the spec
    requested, keyed by probe name — read a number as
    ``result.metric("latency")["mean_ms"]``, or a whole sweep as
    :class:`~repro.harness.results.ResultSet` columns
    (``"latency.mean_ms"``).  ``diagnostics["events"]`` is the number
    of engine events the run executed.
    """

    spec: ExperimentSpec
    metrics: dict[str, MetricValue]
    sent: int
    undelivered: int
    simulated_seconds: float
    wall_seconds: float
    diagnostics: dict = field(default_factory=dict)

    def metric(self, probe: str) -> MetricValue:
        """The named probe's value; absent probes fail with a hint."""
        try:
            return self.metrics[probe]
        except KeyError:
            raise KeyError(
                f"result carries no {probe!r} metric (measured: "
                f"{', '.join(self.metrics) or 'none'}); add it to the "
                f"spec's metrics=(...) axis"
            ) from None


def run_experiment(
    spec: ExperimentSpec,
    extra_probes: tuple = (),
    on_system=None,
) -> ExperimentResult:
    """Build, drive, probe, and (safety-)check one run.

    With ``spec.safety_checks`` a fresh
    :class:`~repro.checkers.abcast.AbcastChecker` is subscribed to the
    trace after the probes, in either trace mode, and its safety
    verdicts are asked for once the run ends.

    Args:
        spec: The run description.
        extra_probes: Additional ``(name, probe)`` pairs appended after
            the spec's registry-named probes — the seam the
            observability layer uses to attach a caller-held
            :class:`~repro.obs.spans.SpanRecorder` (the spec stays
            frozen and picklable; ad-hoc probe *instances* ride here).
            Names must not collide with ``spec.metrics``.
        on_system: Optional ``callback(system)`` invoked right after
            :func:`~repro.stack.builder.build_system`, before the
            workload runs — the hook telemetry samplers use to install
            their simulated-time timers.  The run owns the system and
            closes it before returning (or raising), so a callback that
            keeps it can read ``trace``, ``config``, the network's frame
            counters and ``engine.now`` afterwards, but cannot run it on
            (see :meth:`~repro.stack.builder.System.close`).
    """
    started = time.perf_counter()
    named_probes = build_probes(spec) + tuple(extra_probes)
    names = [name for name, _ in named_probes]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"duplicate probe names across metrics axis and "
            f"extra_probes: {sorted(names)}"
        )
    # Probes without an on_event hook only read end-of-run state.
    sinks = [
        probe.on_event for _, probe in named_probes
        if probe.on_event is not None
    ]
    checker = None
    if spec.safety_checks:
        checker = AbcastChecker(None, SystemConfig(n=spec.stack.n))
        sinks.append(checker.on_event)
    trace_cls = CountingTrace if spec.trace_mode == "metrics" else Trace
    with build_system(
        spec.stack, CrashSchedule.none(), trace=trace_cls(sinks)
    ) as system:
        if on_system is not None:
            on_system(system)
        workload = WORKLOADS.get(spec.workload).factory(
            system,
            throughput=spec.throughput,
            payload_size=spec.payload,
            duration=spec.duration,
            arrivals=spec.arrivals,
        )
        workload.install()

        horizon = spec.duration + spec.drain

        def drained() -> bool:
            # Consulted only once now > duration: the chained generators
            # have fired their last send, so workload.sent is the run's
            # final offered load.
            return all(
                abcast.delivered_count() >= workload.sent
                for abcast in system.abcasts.values()
            )

        # Predicate-free while load is offered; one lifetime cap over both.
        engine = system.engine
        engine.run(until=spec.duration, max_events=spec.max_events)
        engine.run(until=horizon, max_events=spec.max_events,
                   stop_when=drained)
        sent = workload.sent

        if checker is not None:
            # Liveness is not asserted here (a saturated run legitimately
            # has undelivered backlog); safety must hold regardless.
            checker.check_all(expect_quiescent=False)

        metrics = {
            name: probe.finish(system, sent) for name, probe in named_probes
        }
        delivered_min = min(
            a.delivered_count() for a in system.abcasts.values()
        )
        return ExperimentResult(
            spec=spec,
            metrics=metrics,
            sent=sent,
            undelivered=max(0, sent - delivered_min),
            simulated_seconds=system.engine.now,
            wall_seconds=time.perf_counter() - started,
            diagnostics={"events": system.engine.events_executed},
        )
