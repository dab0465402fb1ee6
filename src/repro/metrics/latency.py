"""The paper's latency metric.

Latency of a message ``m`` at process ``p`` is ``adeliver_p(m) -
abroadcast(m)``; the reported figure is the average over all processes
and all measured messages (Section 4.2).  Messages abroadcast during
the warmup or cooldown windows are excluded, as is standard for
steady-state measurements (and as the Neko studies the paper builds on
do).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SystemConfig
from repro.core.events import ABroadcastEvent, ADeliverEvent
from repro.metrics.stats import SummaryStats
from repro.sim.trace import Trace


@dataclass(frozen=True)
class LatencyReport:
    """Latency measurement of one run.

    Attributes:
        stats: Summary over every (message, process) delivery sample, in
            **seconds** — ``stats.mean`` is the paper's metric.
        messages_measured: Messages inside the measurement window.
        messages_fully_delivered: Measured messages adelivered by every
            correct process (should equal ``messages_measured`` on a
            quiescent correct run).
        samples: Raw per-delivery latencies in seconds.
    """

    stats: SummaryStats
    messages_measured: int
    messages_fully_delivered: int
    samples: tuple[float, ...]

    @property
    def mean_ms(self) -> float:
        """The paper's headline number: average latency in milliseconds."""
        return self.stats.mean * 1e3


def measure_latency(
    trace: Trace,
    config: SystemConfig,
    warmup: float = 0.0,
    cutoff: float | None = None,
) -> LatencyReport:
    """Compute the latency report from a finished run's trace.

    Replays the trace's abroadcasts and the correct processes'
    adeliveries, in one pass, through the latency probe's fold — the
    same window, correct-process filter and sample order as the
    ``"latency"`` probe of a run measured with the same window.

    Args:
        trace: The run's protocol-event trace.
        config: Group configuration (to know the correct processes).
        warmup: Messages abroadcast before this time are excluded.
        cutoff: Messages abroadcast after this time are excluded
            (defaults to no upper cutoff).

    Raises:
        ConfigurationError: If no message falls inside the window, or
            no measured message was adelivered.
    """
    # Imported here: the probes module builds on this one.
    from repro.metrics.probes import LatencyProbe

    correct = trace.correct_processes(config.processes)
    fold = LatencyProbe(config.n, warmup, cutoff)
    for event in trace.select(ABroadcastEvent, ADeliverEvent):
        if type(event) is ABroadcastEvent or event.process in correct:
            fold.on_event(event)
    return fold.report(correct)
