"""Observability: causal spans, runtime telemetry, timeline export.

Three pillars, one package (see the README's "Observability" section):

* :mod:`repro.obs.spans` — :class:`~repro.obs.spans.SpanRecorder`
  derives hierarchical, causally-linked spans from the protocol-event
  stream (abroadcast → per-process adeliver, consensus instances and
  rounds, rb legs, two-group-commit votes, crash markers).  It is a
  :class:`~repro.metrics.probes.Probe`, subscribed to the run's trace
  like every metric probe — which is what makes its output
  bit-identical across ``trace_mode="full"`` and
  ``trace_mode="metrics"``.
* :mod:`repro.obs.telemetry` — a counter/gauge registry sampled on a
  simulated-time cadence (queue depth, events scheduled, per-shard
  admission and goodput).  Nothing installed = the engine's drain loop
  is byte-for-byte untouched (guarded by
  ``tests/obs/test_telemetry.py::TestDisabledPath``).
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) plus CSV/JSON time-series export
  through the :class:`~repro.harness.results.ResultSet` machinery.

:func:`~repro.obs.session.observe_experiment` bundles all three around
one :func:`~repro.harness.experiment.run_experiment` call.
"""

from repro.obs.export import (
    chrome_trace,
    spans_result_set,
    telemetry_result_set,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.session import ObsRun, observe_experiment
from repro.obs.spans import Span, SpanRecorder
from repro.obs.telemetry import (
    Telemetry,
    TelemetrySampler,
    TimeSeries,
)

__all__ = [
    "ObsRun",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "TelemetrySampler",
    "TimeSeries",
    "chrome_trace",
    "observe_experiment",
    "spans_result_set",
    "telemetry_result_set",
    "validate_chrome_trace",
    "write_chrome_trace",
]
