"""Protocol-event observers: the run's one event intake.

Every layer of every process emits
:class:`~repro.core.events.ProtocolEvent` records into a single
:class:`TraceObserver`, one :meth:`~TraceObserver.record` call per
event.  The observer keeps what its retention policy says and then
hands the event to each subscribed **sink** — the per-event hooks of
the run's metric probes (:mod:`repro.metrics.probes`) — so measurement
rides the same call in both retention policies:

* :class:`Trace` — the full, append-only event list plus per-kind
  indexes.  It is the single source of truth for correctness checking
  (the properties of the paper are predicates over traces) and for
  post-hoc analysis; checkers and scenario tests require it.

* :class:`CountingTrace` — the cheap observer for pure performance
  runs: it counts events and remembers crashes, nothing else, so a
  long high-throughput sweep costs O(messages) memory instead of
  O(events) (each message generates O(n²) protocol events below it)
  without a second measurement code path.

``build_system`` accepts either; ``run_experiment`` picks the retention
policy from the experiment's ``trace_mode`` and subscribes the probes.
"""

from __future__ import annotations

from collections import defaultdict
from math import inf
from typing import Callable, Iterable, Iterator

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
from repro.core.identifiers import MessageId, ProcessId


class TraceObserver:
    """Sink for protocol events emitted during a run.

    The engine-facing contract is a single method: :meth:`record` is
    called once per event, in simulated-time order (the engine is
    single-threaded).  Implementations decide what to retain, then call
    every subscribed sink with the same event, in subscription order.

    Args:
        sinks: Per-event callables (``Probe.on_event`` hooks), fixed at
            construction.
    """

    def __init__(
        self, sinks: Iterable[Callable[[ProtocolEvent], None]] = ()
    ) -> None:
        self.sinks = tuple(sinks)
        self._crashes: dict[ProcessId, CrashEvent] = {}

    def record(self, event: ProtocolEvent) -> None:
        raise NotImplementedError

    def instances(self) -> list[int]:
        """All consensus instance numbers that reached a decision."""
        raise NotImplementedError

    def crashes(self) -> dict[ProcessId, CrashEvent]:
        """Map of crashed process -> crash event."""
        return dict(self._crashes)

    def correct_processes(
        self, all_processes: Iterator[ProcessId] | tuple
    ) -> frozenset[ProcessId]:
        """Processes that never crashed during the run."""
        return frozenset(p for p in all_processes if p not in self._crashes)


class Trace(TraceObserver):
    """Append-only, time-ordered record of protocol events.

    Events arrive in simulated-time order because the engine is
    single-threaded; the trace simply appends.  Accessors return typed
    views so checkers never need isinstance ladders.
    """

    def __init__(
        self, sinks: Iterable[Callable[[ProtocolEvent], None]] = ()
    ) -> None:
        super().__init__(sinks)
        self.events: list[ProtocolEvent] = []
        self._adeliveries: dict[ProcessId, list[ADeliverEvent]] = defaultdict(list)
        self._abroadcasts: list[ABroadcastEvent] = []
        self._rdeliveries: dict[ProcessId, list[RDeliverEvent]] = defaultdict(list)
        self._rbroadcasts: list[RBroadcastEvent] = []
        self._decides: dict[int, list[DecideEvent]] = defaultdict(list)
        self._proposals: dict[int, list[ProposeEvent]] = defaultdict(list)
        #: process -> (deliveries indexed so far, {mid: earliest
        #: r-delivery time among them}); :meth:`holders_at` extends it
        #: on demand, so recording pays nothing for it.
        self._first_rdelivery: dict[
            ProcessId, tuple[int, dict[MessageId, float]]
        ] = {}

    def record(self, event: ProtocolEvent) -> None:
        """Append ``event``, update the per-kind indexes, feed the sinks."""
        self.events.append(event)
        # Event classes are final (slotted dataclasses, never
        # subclassed), so identity tests replace isinstance calls.
        cls = type(event)
        if cls is ADeliverEvent:
            self._adeliveries[event.process].append(event)
        elif cls is ABroadcastEvent:
            self._abroadcasts.append(event)
        elif cls is RDeliverEvent:
            self._rdeliveries[event.process].append(event)
        elif cls is RBroadcastEvent:
            self._rbroadcasts.append(event)
        elif cls is DecideEvent:
            self._decides[event.instance].append(event)
        elif cls is ProposeEvent:
            self._proposals[event.instance].append(event)
        elif cls is CrashEvent:
            self._crashes[event.process] = event
        for sink in self.sinks:
            sink(event)

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------

    def abroadcasts(self) -> list[ABroadcastEvent]:
        """All ``abroadcast`` invocations, in time order."""
        return list(self._abroadcasts)

    def adeliveries(self, process: ProcessId | None = None) -> list[ADeliverEvent]:
        """``adeliver`` events of one process (or all, time-ordered)."""
        if process is not None:
            return list(self._adeliveries.get(process, ()))
        return [e for e in self.events if isinstance(e, ADeliverEvent)]

    def adelivery_sequence(self, process: ProcessId) -> list[MessageId]:
        """The sequence of message ids adelivered by ``process``."""
        return [e.message.mid for e in self._adeliveries.get(process, ())]

    def rbroadcasts(self) -> list[RBroadcastEvent]:
        return list(self._rbroadcasts)

    def rdeliveries(self, process: ProcessId | None = None) -> list[RDeliverEvent]:
        if process is not None:
            return list(self._rdeliveries.get(process, ()))
        return [e for e in self.events if isinstance(e, RDeliverEvent)]

    def proposals(self, instance: int | None = None) -> list[ProposeEvent]:
        if instance is not None:
            return list(self._proposals.get(instance, ()))
        return [e for e in self.events if isinstance(e, ProposeEvent)]

    def decides(self, instance: int | None = None) -> list[DecideEvent]:
        if instance is not None:
            return list(self._decides.get(instance, ()))
        return [e for e in self.events if isinstance(e, DecideEvent)]

    def instances(self) -> list[int]:
        """All consensus instance numbers that reached a decision."""
        return sorted(self._decides)

    def crash_time(self, process: ProcessId) -> float | None:
        event = self._crashes.get(process)
        return None if event is None else event.time

    # ------------------------------------------------------------------
    # Derived queries used by the checkers
    # ------------------------------------------------------------------

    def holders_at(
        self,
        ids: frozenset[MessageId],
        time: float,
        include_crashed: bool = False,
    ) -> frozenset[ProcessId]:
        """Processes that had r-delivered every message of ``ids`` by ``time``.

        With ``include_crashed=False`` (the *No loss* observation) a
        process that crashed before ``time`` no longer counts as a
        holder — its copy is lost, so the property needs a holder that
        is still up.  With ``include_crashed=True`` (the *v-stability*
        observation) every process that had received ``msgs(v)`` by
        ``time`` counts, crashed since or not: the stability argument
        is about how many *distinct* processes ever held the messages,
        because the run-wide bound of at most ``f`` crashes is what
        turns ``f + 1`` holders into one correct holder.
        """
        holders = set()
        for process, deliveries in self._rdeliveries.items():
            if not include_crashed:
                crash = self._crashes.get(process)
                if crash is not None and crash.time <= time:
                    continue
            first = self._first_rdelivery_times(process, deliveries)
            if all(first.get(mid, inf) <= time for mid in ids):
                holders.add(process)
        return frozenset(holders)

    def _first_rdelivery_times(
        self, process: ProcessId, deliveries: list[RDeliverEvent]
    ) -> dict[MessageId, float]:
        """``mid -> earliest r-delivery time`` at ``process``.

        ``process`` held ``mid`` at ``t`` iff that time is ``<= t``, so
        one index answers every ``holders_at`` query instead of one
        pass over the deliveries per query.  The delivery lists only
        grow, so the index is extended from where it stopped.
        """
        indexed, first = self._first_rdelivery.get(process, (0, {}))
        if indexed < len(deliveries):
            for event in deliveries[indexed:]:
                mid = event.message.mid
                if event.time < first.get(mid, inf):
                    first[mid] = event.time
            self._first_rdelivery[process] = (len(deliveries), first)
        return first

    def first_decision(self, instance: int) -> DecideEvent | None:
        """Earliest decide event of ``instance``, if any."""
        events = self._decides.get(instance)
        if not events:
            return None
        return min(events, key=lambda e: (e.time, e.process))

    def __len__(self) -> int:
        return len(self.events)


class CountingTrace(TraceObserver):
    """Retains nothing but an event count and the crash record.

    The trace for probe-measured performance runs
    (``trace_mode="metrics"``): all measurement happens in the sinks
    (the metric probes), so the trace itself only has to answer the
    introspection queries that survive a run (who crashed, how many
    events flowed).
    """

    def __init__(
        self, sinks: Iterable[Callable[[ProtocolEvent], None]] = ()
    ) -> None:
        super().__init__(sinks)
        #: Total events observed (diagnostics; nothing is retained).
        self.events_seen = 0

    def record(self, event: ProtocolEvent) -> None:
        self.events_seen += 1
        if type(event) is CrashEvent:
            self._crashes[event.process] = event
        for sink in self.sinks:
            sink(event)

    def instances(self) -> list[int]:
        """Decided instances are not retained here; ask the consensus
        probe (``metrics["consensus"]["instances_decided"]``)."""
        return []

    def __len__(self) -> int:
        return self.events_seen

