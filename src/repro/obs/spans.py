"""Causal span derivation from the protocol-event stream.

A **span** is a named time interval attributed to one process (or to
service-level infrastructure), with an optional parent — the timeline
unit Perfetto renders.  Nothing in the simulator emits spans directly;
:class:`SpanRecorder` *derives* them from the same
:class:`~repro.core.events.ProtocolEvent` stream every metric probe
sees, which buys two properties for free:

* **bit-identity across trace modes** — the recorder is a
  :class:`~repro.metrics.probes.Probe` whose ``on_event`` the run's
  trace calls from its own ``record``, so ``trace_mode="full"``
  and ``trace_mode="metrics"`` produce the identical span forest
  (asserted by ``tests/obs/test_span_agreement.py``, mirroring the
  PR-4 probe-agreement discipline);
* **replayability** — any retained :class:`~repro.sim.trace.Trace`
  (e.g. the explorer's replay of a counterexample) can be turned into
  spans after the fact via :meth:`SpanRecorder.from_trace`.

The span forest (per recorder, i.e. per abcast group):

* ``abcast`` / ``tx-prepare`` / ``tx-outcome`` — one root per
  abroadcast message, on the sender's lane, spanning abroadcast →
  last adeliver; children: one ``adeliver`` span per delivering
  process.  Messages carrying two-group-commit payloads
  (:class:`~repro.shard.ops.TxPrepare` /
  :class:`~repro.shard.ops.TxCommit` / :class:`~repro.shard.ops.TxAbort`)
  are classified by leg so commit traffic is visually distinct.
* ``rb`` / ``urb`` — one root per reliable-broadcast initiation,
  children ``rdeliver`` per process.
* ``consensus`` — one root per (process, instance), propose → decide;
  children: one ``round`` span per executed round, cut at the next
  round's entry time (round entry times are recorded by the consensus
  instances themselves — one float append per round).
* ``crash`` — zero-width marker at the crash instant.
* ``tx-vote`` — zero-width service-level marker per accepted
  two-group-commit vote (wired via
  :meth:`~repro.shard.commit.TwoGroupCommit.on_vote`).

Well-formedness is structural: every child interval is clamped inside
its parent's interval and parent ids are assigned before children
(no orphans) — re-asserted by the test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.events import (
    ABroadcastEvent,
    ADeliverEvent,
    CrashEvent,
    DecideEvent,
    ProposeEvent,
    ProtocolEvent,
    RBroadcastEvent,
    RDeliverEvent,
)
from repro.metrics.probes import MetricValue, Probe
from repro.shard.ops import TxAbort, TxCommit, TxPrepare


@dataclass(frozen=True, slots=True)
class Span:
    """One derived timeline interval.

    Attributes:
        sid: Span id, unique within one recorder's forest; parents have
            smaller ids than their children (DFS assignment).
        parent: Parent span id, or ``None`` for roots.
        kind: Category (``"abcast"``, ``"adeliver"``, ``"consensus"``,
            ``"round"``, ``"rb"``, ``"urb"``, ``"rdeliver"``,
            ``"tx-prepare"``, ``"tx-outcome"``, ``"tx-vote"``,
            ``"crash"``).
        name: Human-readable label (the Perfetto slice title).
        process: Owning process id, or ``None`` for service-level spans
            (two-group-commit votes).
        group: Shard/group index (0 for single-group runs).
        start / end: Simulated seconds; ``start == end`` renders as an
            instant marker.
    """

    sid: int
    parent: int | None
    kind: str
    name: str
    process: int | None
    group: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Msg:
    """Mutable per-message accumulator (abroadcast + adelivers)."""

    __slots__ = ("order", "ab_time", "kind", "label", "adelivers")

    def __init__(self, order: int) -> None:
        self.order = order
        self.ab_time: float | None = None
        self.kind = "abcast"
        self.label = ""
        self.adelivers: list[tuple[float, int]] = []


class _Rb:
    """Mutable per-message accumulator (rbroadcast + rdelivers)."""

    __slots__ = ("order", "rb_time", "origin", "uniform", "rdelivers")

    def __init__(self, order: int) -> None:
        self.order = order
        self.rb_time: float | None = None
        self.origin: int | None = None
        self.uniform = False
        self.rdelivers: list[tuple[float, int]] = []


def _classify(message: Any) -> tuple[str, str]:
    """(kind, label) of one abroadcast message, by payload content."""
    content = message.payload.content
    if isinstance(content, TxPrepare):
        return "tx-prepare", f"prepare {content.txid}"
    if isinstance(content, TxCommit):
        return "tx-outcome", f"commit {content.txid}"
    if isinstance(content, TxAbort):
        return "tx-outcome", f"abort {content.txid}"
    return "abcast", str(message.mid)


class SpanRecorder(Probe):
    """Streaming span derivation for one run (or one shard group).

    Use it three ways:

    * as an extra probe on :func:`~repro.harness.experiment
      .run_experiment` (``extra_probes=(("spans", recorder),)``) — the
      harness calls :meth:`finish` with the built system, which
      finalizes the forest into :attr:`spans`;
    * subscribed to a sharded group's trace (pass its
      :meth:`on_event` in the trace's ``sinks``), then
      :meth:`finalize` called manually;
    * after the fact on a retained trace via :meth:`from_trace`.

    Args:
        spec: Optional experiment spec (unused; accepted so the class
            satisfies the probe-factory signature).
        group: Shard/group index stamped on every span.
    """

    def __init__(self, spec: Any = None, group: int = 0) -> None:
        self.spec = spec
        self.group = group
        self.spans: tuple[Span, ...] = ()
        self._order = 0
        self._msgs: dict[Any, _Msg] = {}
        self._rbs: dict[Any, _Rb] = {}
        #: (pid, instance) -> [first propose time, first decide time]
        self._cons: dict[tuple[int, int], list[float | None]] = {}
        self._crashes: list[tuple[float, int]] = []
        self._votes: list[tuple[float, int, str, bool]] = []

    # ------------------------------------------------------------------
    # Streaming intake
    # ------------------------------------------------------------------

    def _msg(self, mid: Any) -> _Msg:
        record = self._msgs.get(mid)
        if record is None:
            record = self._msgs[mid] = _Msg(self._order)
            self._order += 1
        return record

    def _rb(self, mid: Any) -> _Rb:
        record = self._rbs.get(mid)
        if record is None:
            record = self._rbs[mid] = _Rb(self._order)
            self._order += 1
        return record

    def on_event(self, event: ProtocolEvent) -> None:  # type: ignore[override]
        cls = type(event)
        if cls is ADeliverEvent:
            record = self._msg(event.message.mid)
            record.adelivers.append((event.time, event.process))
        elif cls is ABroadcastEvent:
            record = self._msg(event.message.mid)
            if record.ab_time is None:
                record.ab_time = event.time
                record.kind, record.label = _classify(event.message)
        elif cls is RDeliverEvent:
            rb = self._rb(event.message.mid)
            rb.rdelivers.append((event.time, event.process))
            rb.uniform = rb.uniform or event.uniform
            if rb.origin is None:
                rb.origin = event.message.mid.origin
        elif cls is RBroadcastEvent:
            rb = self._rb(event.message.mid)
            if rb.rb_time is None:
                rb.rb_time = event.time
                rb.origin = event.process
            rb.uniform = rb.uniform or event.uniform
        elif cls is ProposeEvent:
            key = (event.process, event.instance)
            times = self._cons.setdefault(key, [None, None])
            if times[0] is None:
                times[0] = event.time
        elif cls is DecideEvent:
            key = (event.process, event.instance)
            times = self._cons.setdefault(key, [None, None])
            if times[1] is None:
                times[1] = event.time
        elif cls is CrashEvent:
            self._crashes.append((event.time, event.process))

    def note_vote(self, time: float, shard: int, txid: str, vote: bool) -> None:
        """Record one accepted two-group-commit vote instant."""
        self._votes.append((time, shard, txid, vote))

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finalize(self, system: Any = None) -> tuple[Span, ...]:
        """Build the span forest; also stored as :attr:`spans`.

        Args:
            system: Optional built :class:`~repro.stack.builder.System`
                (or a sharded group); when given, consensus spans gain
                per-round children read from the services' round logs
                (decided instances) and undecided instances'
                ``round_entries`` timestamps.
        """
        out: list[Span] = []
        sid = 0

        def emit(
            kind: str,
            name: str,
            process: int | None,
            start: float,
            end: float,
            parent: int | None,
        ) -> int:
            nonlocal sid
            span = Span(
                sid=sid,
                parent=parent,
                kind=kind,
                name=name,
                process=process,
                group=self.group,
                start=start,
                end=end,
            )
            out.append(span)
            sid += 1
            return span.sid

        # Message spans: abroadcast -> last adeliver, per-process
        # children.  Deterministic order: (start time, first-seen order).
        for mid, record in sorted(
            self._msgs.items(),
            key=lambda item: (
                item[1].ab_time
                if item[1].ab_time is not None
                else min(t for t, _ in item[1].adelivers),
                item[1].order,
            ),
        ):
            start = (
                record.ab_time
                if record.ab_time is not None
                else min(t for t, _ in record.adelivers)
            )
            if not record.label:
                record.kind, record.label = "abcast", str(mid)
            end = max([start] + [t for t, _ in record.adelivers])
            parent = emit(
                record.kind, record.label, mid.origin, start, end, None
            )
            for t, pid in sorted(record.adelivers):
                emit(
                    "adeliver",
                    f"adeliver p{pid}",
                    pid,
                    start,
                    min(max(t, start), end),
                    parent,
                )

        # Reliable-broadcast spans.
        for mid, rb in sorted(
            self._rbs.items(),
            key=lambda item: (
                item[1].rb_time
                if item[1].rb_time is not None
                else min(t for t, _ in item[1].rdelivers),
                item[1].order,
            ),
        ):
            start = (
                rb.rb_time
                if rb.rb_time is not None
                else min(t for t, _ in rb.rdelivers)
            )
            end = max([start] + [t for t, _ in rb.rdelivers])
            kind = "urb" if rb.uniform else "rb"
            parent = emit(kind, f"{kind} {mid}", rb.origin, start, end, None)
            for t, pid in sorted(rb.rdelivers):
                emit(
                    "rdeliver",
                    f"rdeliver p{pid}",
                    pid,
                    start,
                    min(max(t, start), end),
                    parent,
                )

        # Consensus instance + round spans.
        rounds: dict[tuple[int, int], Any] = {}
        for pid, service in (getattr(system, "consensuses", None) or {}).items():
            for k, entries in service.round_log.items():
                rounds[pid, k] = entries
            for k, instance in service._instances.items():
                rounds[pid, k] = instance.round_entries
        for (pid, k), (propose_t, decide_t) in sorted(
            self._cons.items(),
            key=lambda item: (
                min(t for t in item[1] if t is not None),
                item[0],
            ),
        ):
            entries = rounds.get((pid, k), ())
            start_candidates = [t for t in (propose_t, decide_t) if t is not None]
            if entries:
                start_candidates.append(entries[0])
            start = propose_t if propose_t is not None else min(start_candidates)
            end_candidates = [start]
            if decide_t is not None:
                end_candidates.append(decide_t)
            elif entries:
                end_candidates.append(entries[-1])
            end = max(end_candidates)
            parent = emit(
                "consensus", f"consensus k={k}", pid, start, end, None
            )
            for i, t in enumerate(entries):
                round_end = entries[i + 1] if i + 1 < len(entries) else end
                s = min(max(t, start), end)
                e = min(max(round_end, s), end)
                emit("round", f"round {i + 1}", pid, s, e, parent)

        # Crash markers.
        for t, pid in sorted(self._crashes):
            emit("crash", f"crash p{pid}", pid, t, t, None)

        # Two-group-commit vote instants (service-level lane).
        for t, shard, txid, vote in sorted(
            self._votes, key=lambda v: (v[0], v[1], v[2])
        ):
            verdict = "yes" if vote else "no"
            emit(
                "tx-vote",
                f"vote {txid} shard{shard} {verdict}",
                None,
                t,
                t,
                None,
            )

        self.spans = tuple(out)
        return self.spans

    def finish(self, system: Any, sent: int) -> MetricValue:
        """Probe contract: finalize, summarize the forest as a metric.

        The scalar summary (total spans, per-kind counts, forest depth)
        is what lands in ``ExperimentResult.metrics`` — compact and
        comparable; the full forest stays on :attr:`spans` for export.
        """
        spans = self.finalize(system)
        kinds = Counter(span.kind for span in spans)
        depth: dict[int, int] = {}
        max_depth = 0
        for span in spans:  # parents precede children by construction
            depth[span.sid] = (
                0 if span.parent is None else depth[span.parent] + 1
            )
            max_depth = max(max_depth, depth[span.sid])
        fields: dict[str, float] = {
            "spans_total": len(spans),
            "roots": sum(1 for s in spans if s.parent is None),
            "max_depth": max_depth,
        }
        for kind in sorted(kinds):
            fields[f"kind.{kind}"] = kinds[kind]
        return MetricValue.of(fields=fields)

    @classmethod
    def from_trace(
        cls, trace: Any, system: Any = None, group: int = 0
    ) -> "SpanRecorder":
        """Derive spans from a retained event trace (e.g. a replay)."""
        recorder = cls(group=group)
        for event in trace.events:
            recorder.on_event(event)
        recorder.finalize(system)
        return recorder


def check_well_formed(spans: Iterable[Span]) -> None:
    """Assert structural invariants of a span forest; raises ValueError.

    Every parent exists and precedes its child (no orphans, no forward
    references), every child's interval sits inside its parent's, and
    no span ends before it starts.
    """
    by_sid: dict[int, Span] = {}
    for span in spans:
        if span.end < span.start:
            raise ValueError(f"span {span.sid} ends before it starts: {span}")
        if span.parent is not None:
            parent = by_sid.get(span.parent)
            if parent is None:
                raise ValueError(
                    f"span {span.sid} references missing/later parent "
                    f"{span.parent}"
                )
            if span.start < parent.start or span.end > parent.end:
                raise ValueError(
                    f"span {span.sid} [{span.start}, {span.end}] escapes "
                    f"parent {parent.sid} [{parent.start}, {parent.end}]"
                )
        if span.sid in by_sid:
            raise ValueError(f"duplicate span id {span.sid}")
        by_sid[span.sid] = span
