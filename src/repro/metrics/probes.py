"""Pluggable metric probes: the measurement side of the registry seam.

The paper's evaluation is entirely about *derived measurements* —
delivery latency, payload-vs-control wire traffic, consensus work, FD
behaviour — and new studies keep adding more.  Instead of hard-wiring
one set of scalars into ``run_experiment``, every measurement is a
**probe**: a streaming observer registered by name in the :data:`PROBES`
registry (the same :class:`~repro.stack.registry.LayerRegistry`
machinery PR 3 introduced for protocol layers).

A probe sees two things:

* the **protocol-event stream**: ``run_experiment`` subscribes each
  probe's :attr:`Probe.on_event` to the run's trace, which calls it
  from its own ``record`` — one call per event per subscribed probe,
  identically in ``trace_mode="full"`` and ``trace_mode="metrics"``,
  which is what makes every probe's output bit-identical across the
  two modes (asserted in ``tests/harness/test_probe_agreement.py``);
* the **finished system** (network counters, failure detectors,
  consensus services, engine clock) at :meth:`Probe.finish` time.

Each probe folds what it observed into one :class:`MetricValue` — a
frozen, canonically ordered bundle of named scalars (flat columns for
the :class:`~repro.harness.results.ResultSet` surface) plus optional
named sample vectors (histogram inputs).  ``run_experiment`` stores the
values under the probe's registry name in
``ExperimentResult.metrics`` — cache-stable, picklable, and comparable.

Registering a custom probe requires no harness change::

    from repro.metrics.probes import MetricValue, Probe, PROBES

    class QueueProbe(Probe):
        def finish(self, system, sent):
            depths = [a.backlog() for a in system.abcasts.values()]
            return MetricValue.of({"max_pending": float(max(
                sum(d.values()) for d in depths
            ))})

    PROBES.register("queues", "peak abcast queue occupancy",
                    factory=QueueProbe)

    spec = ExperimentSpec(..., metrics=("latency", "queues"))

Registration and multiprocessing: specs name probes as plain strings
(which keeps them picklable and their cache keys content-stable), so a
``run_suite`` pool worker resolves the name against *its own* registry.
Register custom probes at import time of a module the workers also
load — the top level of your sweep script or an imported module, not
inside an ``if __name__ == "__main__"`` branch or a REPL session.
Under the ``fork`` start method (Linux default) the child inherits the
registry either way; under ``spawn`` (macOS/Windows) the child
re-imports the script's module, which re-runs top-level registrations.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Mapping

from repro.core.events import (
    ABroadcastEvent,
    ADeliverEvent,
    DecideEvent,
    ProposeEvent,
    ProtocolEvent,
)
from repro.core.exceptions import ConfigurationError
from repro.core.identifiers import MessageId, ProcessId
from repro.metrics.latency import LatencyReport
from repro.metrics.stats import summarize
from repro.stack.registry import LayerRegistry


# ----------------------------------------------------------------------
# MetricValue: the generic, cache-stable measurement payload
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MetricValue:
    """One probe's output: named scalars plus optional sample vectors.

    Both components are canonically sorted tuples of primitives, so a
    ``MetricValue`` is hashable, picklable, JSON-able, and equality is
    insensitive to construction order — the properties the result cache
    and the full-vs-metrics agreement tests rely on.

    Attributes:
        fields: ``(name, number)`` pairs — the flat columns a
            :class:`~repro.harness.results.ResultSet` exposes as
            ``"<probe>.<name>"``.
        series: ``(name, samples)`` pairs — raw sample vectors (e.g.
            the latency probe's per-delivery samples) for consumers
            that need distributions, not just summaries.
    """

    fields: tuple[tuple[str, float], ...] = ()
    series: tuple[tuple[str, tuple[float, ...]], ...] = ()

    @classmethod
    def of(
        cls,
        fields: Mapping[str, float] | None = None,
        series: Mapping[str, Iterable[float]] | None = None,
    ) -> "MetricValue":
        """Build a canonical value from mappings (sorted by name)."""
        packed_fields = []
        for name in sorted(fields or {}):
            number = (fields or {})[name]
            if isinstance(number, bool) or not isinstance(number, (int, float)):
                raise ConfigurationError(
                    f"metric field {name!r} must be a number, got {number!r}"
                )
            packed_fields.append((name, number))
        packed_series = []
        for name in sorted(series or {}):
            packed_series.append((name, tuple(float(v) for v in (series or {})[name])))
        return cls(fields=tuple(packed_fields), series=tuple(packed_series))

    def __getitem__(self, name: str) -> float:
        for key, value in self.fields:
            if key == name:
                return value
        raise KeyError(
            f"metric has no field {name!r} "
            f"(fields: {', '.join(k for k, _ in self.fields) or 'none'})"
        )

    def get(self, name: str, default: float | None = None) -> float | None:
        for key, value in self.fields:
            if key == name:
                return value
        return default

    def sample(self, name: str) -> tuple[float, ...]:
        """The named sample vector (e.g. ``"samples"`` on the latency probe)."""
        for key, values in self.series:
            if key == name:
                return values
        raise KeyError(
            f"metric has no series {name!r} "
            f"(series: {', '.join(k for k, _ in self.series) or 'none'})"
        )

    def keys(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def as_dict(self) -> dict:
        """Plain-data view (used by ``ResultSet.to_json``)."""
        return {
            "fields": dict(self.fields),
            "series": {name: list(values) for name, values in self.series},
        }


# ----------------------------------------------------------------------
# Probe interface and registry
# ----------------------------------------------------------------------


class Probe:
    """A streaming measurement observer for one experiment run.

    Lifecycle: constructed per run by its registry entry's factory
    (which receives the :class:`~repro.harness.experiment.ExperimentSpec`),
    optionally fed every protocol event through :meth:`on_event`, then
    asked once for its :class:`MetricValue` via :meth:`finish`.

    Probes that only read end-of-run state (network counters, detector
    tallies) leave :attr:`on_event` as ``None`` — they are never
    subscribed to the trace, so they cost nothing on the hot path.
    """

    #: Per-event hook; ``None`` means "not interested in the stream".
    #: Subclasses that do subscribe override this as a method.
    on_event: Callable[[ProtocolEvent], None] | None = None

    def __init__(self, spec: Any) -> None:
        self.spec = spec

    def finish(self, system: Any, sent: int) -> MetricValue:
        """Fold everything observed into the probe's value."""
        raise NotImplementedError


#: The metric-probe registry.  Entry factories are called with the
#: experiment spec and must return a :class:`Probe`.
PROBES = LayerRegistry("metric probe")

#: Probe names measured when a spec does not choose its own set.
DEFAULT_PROBES = ("latency", "traffic", "consensus", "fd", "utilisation")


def validate_probe_names(names: Iterable[str]) -> tuple[str, ...]:
    """Canonicalise a ``metrics=(...)`` axis; unknown names fail with
    the registry's did-you-mean suggestion."""
    canonical = tuple(names)
    seen: set[str] = set()
    for name in canonical:
        PROBES.get(name)
        if name in seen:
            raise ConfigurationError(f"duplicate metric probe {name!r}")
        seen.add(name)
    return canonical


def build_probes(spec: Any) -> tuple[tuple[str, Probe], ...]:
    """Instantiate ``spec.metrics`` through the registry: (name, probe) pairs."""
    return tuple(
        (name, PROBES.get(name).factory(spec)) for name in spec.metrics
    )


# ----------------------------------------------------------------------
# Built-in probes
# ----------------------------------------------------------------------


class LatencyProbe(Probe):
    """The paper's metric, streamed: ``adeliver_p(m) - abroadcast(m)``
    over every measured message and every correct process, summarised
    as mean/p50/p90/p99 (Section 4.2).

    The one implementation of the measurement: only messages
    abroadcast in ``[warmup, cutoff]`` (the spec's ``warmup`` and
    ``duration``; ``cutoff=None`` is open) are measured, samples are
    kept per delivering process, and :meth:`report` restricts them to
    the correct processes.  :func:`~repro.metrics.latency.measure_latency`
    replays a retained trace through the same fold.

    Memory is per message in flight, not per message sent: samples sit
    in ``array('d')`` columns, and once all ``processes`` of the group
    have delivered a message its entries are retired and only counted
    (every correct set is a subset of the group, so a retired message
    is fully delivered whatever :meth:`report` is asked).
    """

    def __init__(
        self,
        processes: int,
        warmup: float = 0.0,
        cutoff: float | None = None,
    ) -> None:
        super().__init__(None)
        self.warmup = warmup
        self.cutoff = cutoff
        self._processes = processes
        #: Send time of every measured message not yet retired.
        self._sent: dict[MessageId, float] = {}
        self._samples: dict[ProcessId, array] = defaultdict(partial(array, "d"))
        self._delivered_by: dict[MessageId, set[ProcessId]] = defaultdict(set)
        self._measured = 0
        self._retired = 0

    def on_event(self, event: ProtocolEvent) -> None:  # type: ignore[override]
        cls = type(event)
        if cls is ADeliverEvent:
            mid = event.message.mid
            sent = self._sent.get(mid)
            if sent is not None:
                self._samples[event.process].append(event.time - sent)
                delivered_by = self._delivered_by[mid]
                delivered_by.add(event.process)
                if len(delivered_by) == self._processes:
                    del self._sent[mid]
                    del self._delivered_by[mid]
                    self._retired += 1
        elif cls is ABroadcastEvent:
            time = event.time
            if time >= self.warmup and (
                self.cutoff is None or time <= self.cutoff
            ):
                self._sent[event.message.mid] = time
                self._measured += 1

    def report(self, correct: frozenset[ProcessId]) -> LatencyReport:
        """Summarise the samples of the ``correct`` processes.

        Samples are ordered by process id, then delivery order.

        Raises:
            ConfigurationError: If no message fell inside the window, or
                no measured message was adelivered by a correct process.
        """
        if not self._measured:
            raise ConfigurationError(
                f"no messages in the measurement window "
                f"(warmup={self.warmup}, cutoff={self.cutoff}); "
                "lengthen the run"
            )
        samples = [
            sample
            for process in sorted(correct)
            for sample in self._samples.get(process, ())
        ]
        if not samples:
            raise ConfigurationError(
                "no measured message was adelivered; the run is too short "
                "or the stack is stuck"
            )
        empty: frozenset[ProcessId] = frozenset()
        fully = self._retired + sum(
            1
            for mid in self._sent
            if correct <= self._delivered_by.get(mid, empty)
        )
        return LatencyReport(
            stats=summarize(samples),
            messages_measured=self._measured,
            messages_fully_delivered=fully,
            samples=tuple(samples),
        )

    def finish(self, system: Any, sent: int) -> MetricValue:
        report = self.report(
            system.trace.correct_processes(system.config.processes)
        )
        stats = report.stats
        return MetricValue.of(
            fields={
                "mean_ms": stats.mean * 1e3,
                "p50_ms": stats.p50 * 1e3,
                "p90_ms": stats.p90 * 1e3,
                "p99_ms": stats.p99 * 1e3,
                "min_ms": stats.minimum * 1e3,
                "max_ms": stats.maximum * 1e3,
                "stdev_ms": stats.stdev * 1e3,
                "count": stats.count,
                "messages_measured": report.messages_measured,
                "fully_delivered": report.messages_fully_delivered,
            },
            series={"samples": report.samples},
        )


def is_data_kind(kind: str) -> bool:
    """The data-versus-control rule: a ``.data`` frame kind carries bulk
    payload diffusion (the rb/urb data planes); any other is control."""
    return kind.endswith(".data")


class TrafficProbe(Probe):
    """Wire traffic by frame kind, read from the network's counters.

    Fields: one ``frames.<kind>`` / ``bytes.<kind>`` pair per frame
    kind that hit the wire, totals, the bulk-data vs control byte split
    (by :func:`is_data_kind`), and the drop counter.
    :class:`~repro.analysis.traffic.TrafficBreakdown` is a view over
    this value — from a (cached) result or, through :meth:`measure`,
    from a live network.
    """

    def finish(self, system: Any, sent: int) -> MetricValue:
        return self.measure(system.network)

    @staticmethod
    def measure(network: Any) -> MetricValue:
        """The probe's value for ``network``'s counters as they stand."""
        fields: dict[str, float] = {}
        for kind, count in network.frames_sent.items():
            fields[f"frames.{kind}"] = count
        for kind, total in network.bytes_sent.items():
            fields[f"bytes.{kind}"] = total
        data_bytes = sum(
            b for kind, b in network.bytes_sent.items() if is_data_kind(kind)
        )
        total_bytes = network.total_bytes()
        fields["frames_total"] = network.total_frames()
        fields["bytes_total"] = total_bytes
        fields["data_bytes"] = data_bytes
        fields["control_bytes"] = total_bytes - data_bytes
        fields["frames_dropped"] = network.frames_dropped
        return MetricValue.of(fields=fields)


class ConsensusProbe(Probe):
    """Consensus work: decide and propose counts (streamed off the
    event trace) plus the decided instances and round statistics read
    from the consensus services.

    Stacks without a consensus layer (the sequencer) report zeros.
    """

    def __init__(self, spec: Any) -> None:
        super().__init__(spec)
        self._decides = 0
        self._proposals = 0

    def on_event(self, event: ProtocolEvent) -> None:  # type: ignore[override]
        cls = type(event)
        if cls is DecideEvent:
            self._decides += 1
        elif cls is ProposeEvent:
            self._proposals += 1

    def finish(self, system: Any, sent: int) -> MetricValue:
        from repro.analysis.rounds import round_statistics

        rounds = round_statistics(system)
        # Every DecideEvent records a ``decided`` entry of its process.
        decided: set[int] = set()
        for service in system.consensuses.values():
            decided.update(service.decided)
        return MetricValue.of(
            fields={
                "instances_decided": len(decided),
                "decides_total": self._decides,
                "proposals_total": self._proposals,
                "first_round_decisions": rounds.first_round_decisions,
                "decision_round_max": rounds.decision_rounds.maximum,
                "churn_round_max": rounds.churn_rounds.maximum,
            },
        )


class FdProbe(Probe):
    """Failure-detector behaviour: suspicion churn across the group.

    Sums the raise/retract counters every
    :class:`~repro.failure.detector.FailureDetector` keeps — the input
    for wrong-suspicion-rate studies (heartbeat FDs under loss raise
    and retract; a clean oracle run reports zeros).
    """

    def finish(self, system: Any, sent: int) -> MetricValue:
        raised = retracted = 0
        worst = 0
        for detector in system.detectors.values():
            raised += detector.suspicions_raised
            retracted += detector.suspicions_retracted
            worst = max(worst, detector.suspicions_raised)
        return MetricValue.of(
            fields={
                "suspicions_raised": raised,
                "suspicions_retracted": retracted,
                "max_raised_by_one_observer": worst,
            },
        )


class UtilisationProbe(Probe):
    """Per-segment medium (and CPU) utilisation of the contention model.

    Reports one ``medium.<i>`` figure per contention segment plus the
    max, and the busiest process CPU, so saturation on a multi-segment
    topology is attributable.  The constant model has no contended
    resources and reports no fields.
    """

    def finish(self, system: Any, sent: int) -> MetricValue:
        network = system.network
        fields: dict[str, float] = {}
        media = getattr(network, "media", None)
        if media:
            for index, medium in enumerate(media):
                fields[f"medium.{index}"] = medium.utilisation()
            fields["medium_max"] = max(
                medium.utilisation() for medium in media
            )
        cpu_max = 0.0
        has_cpu = False
        for process in system.processes.values():
            cpu = getattr(process, "cpu", None)
            if cpu is not None:
                has_cpu = True
                cpu_max = max(cpu_max, cpu.utilisation())
        if has_cpu and media:
            fields["cpu_max"] = cpu_max
        return MetricValue.of(fields=fields)


class AdmissionProbe(Probe):
    """Router admission control & goodput of a sharded open-loop run.

    Reads the :class:`~repro.shard.router.Router` counters off the
    finished system (duck-typed as ``system.router`` so this module
    never imports the shard package): offered/admitted/shed/delayed/
    completed totals, goodput over the router's measurement window,
    shed rate, and client-observed sojourn percentiles (arrival →
    first adelivery, i.e. queueing + forwarding + ordering latency —
    the overload-facing p99 the saturation probes plot).  On a system
    without a router it reports no fields, so the probe can sit in a
    shared ``metrics=(...)`` axis.
    """

    def finish(self, system: Any, sent: int) -> MetricValue:
        router = getattr(system, "router", None)
        if router is None:
            return MetricValue.of()
        return MetricValue.of(fields=router.window_stats())


PROBES.register(
    "latency",
    "delivery latency mean/p50/p90/p99 over the measurement window",
    factory=lambda spec: LatencyProbe(spec.stack.n, spec.warmup, spec.duration),
)
PROBES.register(
    "traffic",
    "wire frames/bytes by frame kind, data-vs-control split",
    factory=TrafficProbe,
)
PROBES.register(
    "consensus",
    "decided instances, proposals, decision/churn rounds",
    factory=ConsensusProbe,
)
PROBES.register(
    "fd",
    "failure-detector suspicions raised/retracted",
    factory=FdProbe,
)
PROBES.register(
    "utilisation",
    "per-segment medium and per-process CPU utilisation",
    factory=UtilisationProbe,
)
PROBES.register(
    "admission",
    "router admission control: offered/shed/goodput, sojourn p50/p99",
    factory=AdmissionProbe,
)
