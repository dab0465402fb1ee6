"""One-call observability around a single experiment run.

:func:`observe_experiment` wires the three pillars into one
:func:`~repro.harness.experiment.run_experiment` call: a
:class:`~repro.obs.spans.SpanRecorder` is subscribed to the run's
trace like every probe (so span derivation is bit-identical across
trace modes), and — when a sampling
``period`` is given — a :class:`~repro.obs.telemetry.TelemetrySampler`
installs its simulated-time timer on the freshly built system before
the workload runs.  The sampler's timer is part of the deterministic
schedule, so a sampled run is reproducible; it is simply a *different*
schedule than the unsampled run of the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.spans import Span, SpanRecorder
from repro.obs.telemetry import Telemetry, TelemetrySampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import ExperimentResult, ExperimentSpec


@dataclass
class ObsRun:
    """Everything one observed run produced."""

    result: "ExperimentResult"
    recorder: SpanRecorder
    telemetry: Telemetry

    @property
    def spans(self) -> tuple[Span, ...]:
        return self.recorder.spans


def observe_experiment(
    spec: "ExperimentSpec", period: float | None = None
) -> ObsRun:
    """Run ``spec`` with span tracing (and optional telemetry sampling).

    Args:
        spec: Any :class:`~repro.harness.experiment.ExperimentSpec`.
            ``"spans"`` must not appear in its ``metrics`` axis (the
            recorder is attached under that name).
        period: Simulated-time sampling cadence in seconds, or ``None``
            for spans only (no extra events in the schedule at all).
    """
    from repro.harness.experiment import run_experiment

    recorder = SpanRecorder(spec)
    telemetry = Telemetry()

    def on_system(system) -> None:
        if period is not None:
            sampler = TelemetrySampler(system.engine, telemetry)
            sampler.install(period, until=spec.duration + spec.drain)

    result = run_experiment(
        spec,
        extra_probes=(("spans", recorder),),
        on_system=on_system,
    )
    return ObsRun(result=result, recorder=recorder, telemetry=telemetry)
