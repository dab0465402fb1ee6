"""Protocol-event observers: the run's one event intake.

Every layer of every process emits
:class:`~repro.core.events.ProtocolEvent` records into a single
:class:`TraceObserver`, one :meth:`~TraceObserver.record` call per
event.  The observer keeps what its retention policy says and then
hands the event to each subscribed **sink** — the per-event hooks of
the run's metric probes (:mod:`repro.metrics.probes`) and of its abcast
checker (:mod:`repro.checkers.abcast`) — so measurement and safety
checking ride the same call in both retention policies:

* :class:`Trace` — the full, append-only event list, each event held
  once: what post-hoc analysis, the batch checkers and scenario tests
  read (the properties of the paper are predicates over traces).  The
  consensus values its propose and decide events carry are held once
  per distinct value, too (:meth:`TraceObserver.share`).

* :class:`CountingTrace` — the cheap observer for pure performance
  runs: it counts events and remembers crashes, nothing else, so a
  long high-throughput sweep costs O(messages) memory instead of
  O(events) (each message generates O(n²) protocol events below it)
  without a second measurement code path.

``build_system`` accepts either; ``run_experiment`` picks the retention
policy from the experiment's ``trace_mode`` and subscribes the probes
and the checker.
"""

from __future__ import annotations

from math import inf
from operator import attrgetter
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

#: Distinct consensus values a :class:`Trace` remembers for sharing.
#: An instance's proposals and decisions are recorded close together,
#: so a small table finds nearly every repeat.
SHARE_TABLE_SIZE = 256


class TraceObserver:
    """Sink for protocol events emitted during a run.

    The engine-facing contract is a single method: :meth:`record` is
    called once per event, in simulated-time order (the engine is
    single-threaded).  Implementations decide what to retain, then call
    every subscribed sink with the same event, in subscription order.

    Args:
        sinks: Per-event callables (``Probe.on_event`` and
            ``AbcastChecker.on_event`` hooks), fixed at construction.
    """

    def __init__(
        self, sinks: Iterable[Callable[[ProtocolEvent], None]] = ()
    ) -> None:
        self.sinks = tuple(sinks)
        self._crashes: dict[ProcessId, CrashEvent] = {}

    def record(self, event: ProtocolEvent) -> None:
        raise NotImplementedError

    def share(self, value: frozenset[MessageId]) -> frozenset[MessageId]:
        """The object to record for the consensus value ``value``.

        The consensus services pass each propose and decide value
        through here before recording it.  An observer that keeps no
        events returns ``value`` itself and keeps nothing.
        """
        return value

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
    single-threaded; the trace simply appends, so each event is held
    once.  Each accessor derives its typed view with one filtered pass
    over :attr:`events`, so checkers never need isinstance ladders; a
    caller that visits every instance groups once instead
    (:meth:`first_decisions`).

    Every process builds its own copy of a proposed id set, and an
    instance's proposals and decisions are mostly equal, so
    :meth:`share` maps each value to an equal one recorded recently:
    the events of an instance then hold one ``frozenset`` between them.
    Its table keeps at most :data:`SHARE_TABLE_SIZE` values and starts
    over when full, so it costs O(1) memory whatever the run length.
    """

    def __init__(
        self, sinks: Iterable[Callable[[ProtocolEvent], None]] = ()
    ) -> None:
        super().__init__(sinks)
        self.events: list[ProtocolEvent] = []
        #: Events indexed so far, and process -> {mid: earliest
        #: r-delivery time among them}; :meth:`holders_at` extends the
        #: index on demand, so recording pays nothing for it.
        self._indexed = 0
        self._first_rdelivery: dict[ProcessId, dict[MessageId, float]] = {}
        #: Recently recorded consensus values, each mapped to itself.
        self._values: dict[frozenset[MessageId], frozenset[MessageId]] = {}

    def share(self, value: frozenset[MessageId]) -> frozenset[MessageId]:
        """An equal value among the recent ones, else ``value`` (noted)."""
        values = self._values
        shared = values.get(value)
        if shared is None:
            if len(values) >= SHARE_TABLE_SIZE:
                values.clear()
            shared = values[value] = value
        return shared

    def record(self, event: ProtocolEvent) -> None:
        """Append ``event``, note a crash, feed the sinks."""
        self.events.append(event)
        if type(event) is CrashEvent:
            self._crashes[event.process] = event
        for sink in self.sinks:
            sink(event)

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------

    def _of(self, cls: type, process: ProcessId | None = None) -> list:
        """Events of class ``cls`` (of one process, or all), in time order.

        Event classes are final (slotted dataclasses, never
        subclassed), so identity tests replace isinstance calls.
        """
        if process is None:
            return [e for e in self.events if type(e) is cls]
        return [
            e for e in self.events if type(e) is cls and e.process == process
        ]

    def abroadcasts(self) -> list[ABroadcastEvent]:
        """All ``abroadcast`` invocations, in time order."""
        return self._of(ABroadcastEvent)

    def adeliveries(self, process: ProcessId | None = None) -> list[ADeliverEvent]:
        """``adeliver`` events of one process (or all, time-ordered)."""
        return self._of(ADeliverEvent, process)

    def adelivery_sequence(self, process: ProcessId) -> list[MessageId]:
        """The sequence of message ids adelivered by ``process``."""
        return [e.message.mid for e in self._of(ADeliverEvent, process)]

    def rbroadcasts(self) -> list[RBroadcastEvent]:
        return self._of(RBroadcastEvent)

    def rdeliveries(self, process: ProcessId | None = None) -> list[RDeliverEvent]:
        return self._of(RDeliverEvent, process)

    def proposals(self, instance: int | None = None) -> list[ProposeEvent]:
        return [
            e for e in self._of(ProposeEvent)
            if instance is None or e.instance == instance
        ]

    def decides(self, instance: int | None = None) -> list[DecideEvent]:
        return [
            e for e in self._of(DecideEvent)
            if instance is None or e.instance == instance
        ]

    def instances(self) -> list[int]:
        """All consensus instance numbers that reached a decision."""
        return sorted({e.instance for e in self._of(DecideEvent)})

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
        # ``process`` held ``mid`` at ``t`` iff its first r-delivery
        # time is ``<= t``, so one index answers every query; events
        # only append, so it is extended from where it stopped, reading
        # the new events in place.
        index = self._first_rdelivery
        events = self.events
        for at in range(self._indexed, len(events)):
            event = events[at]
            if type(event) is RDeliverEvent:
                first = index.setdefault(event.process, {})
                mid = event.message.mid
                if event.time < first.get(mid, inf):
                    first[mid] = event.time
        self._indexed = len(events)
        holders = set()
        for process, first in index.items():
            if not include_crashed:
                crash = self._crashes.get(process)
                if crash is not None and crash.time <= time:
                    continue
            if all(first.get(mid, inf) <= time for mid in ids):
                holders.add(process)
        return frozenset(holders)

    def first_decision(self, instance: int) -> DecideEvent | None:
        """Earliest decide event of ``instance``, if any."""
        return min(self.decides(instance), key=_EARLIEST, default=None)

    def first_decisions(self) -> dict[int, DecideEvent]:
        """Earliest decide event of every decided instance, in instance
        order: one call for callers that visit every instance."""
        first: dict[int, DecideEvent] = {}
        for event in sorted(self._of(DecideEvent), key=_EARLIEST):
            first.setdefault(event.instance, event)
        return dict(sorted(first.items()))

    def __len__(self) -> int:
        return len(self.events)


#: The order in which a decide event is the first of its instance.
_EARLIEST = attrgetter("time", "process")


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

