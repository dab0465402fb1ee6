"""Metrics: the paper's measurements as pluggable probes.

"The performance metric for atomic broadcast is the latency, defined as
the average (over all processes) of the elapsed time between
abroadcasting a message m and adelivering m."  —  Section 4.2

:mod:`repro.metrics.probes` is the measurement registry: every derived
measurement (latency, traffic split, consensus work, FD suspicions,
medium utilisation — and any custom probe registered in
:data:`~repro.metrics.probes.PROBES`) is a streaming
:class:`~repro.metrics.probes.Probe` producing one cache-stable
:class:`~repro.metrics.probes.MetricValue` per run; the run's trace
calls each probe's ``on_event`` from its own ``record``.
:mod:`repro.metrics.latency` keeps the classic report object and
:func:`~repro.metrics.latency.measure_latency`, which replays a
retained trace through the latency probe's fold;
:mod:`repro.metrics.stats` provides the summary statistics.
"""

from repro.metrics.latency import LatencyReport, measure_latency
from repro.metrics.probes import DEFAULT_PROBES, PROBES, MetricValue, Probe
from repro.metrics.stats import SummaryStats, summarize

__all__ = [
    "DEFAULT_PROBES",
    "LatencyReport",
    "MetricValue",
    "PROBES",
    "Probe",
    "SummaryStats",
    "measure_latency",
    "summarize",
]
