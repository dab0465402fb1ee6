"""Protocol-event observers: the run's one event intake.

Every layer of every process reports its protocol actions to a single
:class:`TraceObserver`, one typed recorder call per action
(:meth:`~TraceObserver.abroadcast`, :meth:`~TraceObserver.adeliver`,
:meth:`~TraceObserver.rbroadcast`, :meth:`~TraceObserver.rdeliver`,
:meth:`~TraceObserver.propose`, :meth:`~TraceObserver.decide`,
:meth:`~TraceObserver.crash`); :meth:`~TraceObserver.record` takes a
ready-made :class:`~repro.core.events.ProtocolEvent` (hand-built
traces).  The observer keeps what its retention policy says and then
hands the event to each subscribed **sink** — the per-event hooks of
the run's metric probes (:mod:`repro.metrics.probes`) and of its abcast
checker (:mod:`repro.checkers.abcast`) — so measurement and safety
checking ride the same call in both retention policies:

* :class:`Trace` — the full, append-only record: what post-hoc
  analysis, the batch checkers and scenario tests read (the properties
  of the paper are predicates over traces).  It keeps no event objects
  but five parallel columns, 26 bytes an event: a kind code and a pid
  (a ``bytearray`` each), the time (``array('d')``), one reference (the
  :class:`~repro.core.message.AppMessage`, or the consensus value) and
  the instance number (``array('q')``).  Equal consensus values are
  held once (:meth:`Trace.share`).  Reading stays event-shaped:
  :attr:`Trace.events` is a read-only sequence view that builds each
  event as it is read, equal to the one the recorder was given, and
  the typed accessors pick their kinds off the kind column before they
  build anything.

* :class:`CountingTrace` — the cheap observer for pure performance
  runs: it counts events and remembers crashes, nothing else, so a
  long high-throughput sweep costs O(messages) memory instead of
  O(events) (each message generates O(n²) protocol events below it)
  without a second measurement code path.

``build_system`` accepts either; ``run_experiment`` picks the retention
policy from the experiment's ``trace_mode`` and subscribes the probes
and the checker.  Either builds an event object only for its sinks.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice
from math import inf
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator

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
from repro.core.message import AppMessage

#: Distinct consensus values a :class:`Trace` remembers for sharing.
#: An instance's proposals and decisions are recorded close together,
#: so a small table finds nearly every repeat.
SHARE_TABLE_SIZE = 256

#: Kind codes of a full trace's kind column.  An rb event's ``uniform``
#: flag is its code's low bit (``RBROADCAST + uniform``).
(
    ABROADCAST, ADELIVER, RBROADCAST, _RBROADCAST_UNIFORM, RDELIVER,
    _RDELIVER_UNIFORM, PROPOSE, DECIDE, CRASH,
) = range(9)

#: The event class of each kind code.
_CLASSES = (
    ABroadcastEvent, ADeliverEvent, RBroadcastEvent, RBroadcastEvent,
    RDeliverEvent, RDeliverEvent, ProposeEvent, DecideEvent, CrashEvent,
)
_CODES = {cls: code for code, cls in reversed(list(enumerate(_CLASSES)))}

#: ``bytes.translate`` tables, one per set of classes: 1 for a kind of
#: the set, 0 for any other.
_TABLES: dict[tuple[type, ...], bytes] = {}


def _table(classes: tuple[type, ...]) -> bytes:
    table = _TABLES.get(classes)
    if table is None:
        codes = {code for code, cls in enumerate(_CLASSES) if cls in classes}
        table = _TABLES[classes] = bytes(int(i in codes) for i in range(256))
    return table


class TraceObserver:
    """Sink for protocol events emitted during a run.

    The engine-facing contract is the typed recorders, one call per
    protocol action, in simulated-time order (the engine is
    single-threaded), plus :meth:`record` for a ready-made event.
    Implementations decide what to retain, then call every subscribed
    sink with the event, in subscription order.  Each recorder here
    states its contract: it is :meth:`record` of the event it names.
    The two observers below implement the per-message and consensus
    recorders directly and record a (rare) crash through :meth:`record`.

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

    def abroadcast(self, time: float, pid: ProcessId, message: AppMessage) -> None:
        self.record(ABroadcastEvent(time, pid, message))

    def adeliver(self, time: float, pid: ProcessId, message: AppMessage) -> None:
        self.record(ADeliverEvent(time, pid, message))

    def rbroadcast(
        self, time: float, pid: ProcessId, message: AppMessage, uniform: bool
    ) -> None:
        self.record(RBroadcastEvent(time, pid, message, uniform))

    def rdeliver(
        self, time: float, pid: ProcessId, message: AppMessage, uniform: bool
    ) -> None:
        self.record(RDeliverEvent(time, pid, message, uniform))

    def propose(
        self, time: float, pid: ProcessId, instance: int,
        value: frozenset[MessageId],
    ) -> None:
        self.record(ProposeEvent(time, pid, instance, self.share(value)))

    def decide(
        self, time: float, pid: ProcessId, instance: int,
        value: frozenset[MessageId],
    ) -> None:
        self.record(DecideEvent(time, pid, instance, self.share(value)))

    def crash(self, time: float, pid: ProcessId) -> None:
        self.record(CrashEvent(time, pid))

    def share(self, value: frozenset[MessageId]) -> frozenset[MessageId]:
        """The object to record for the consensus value ``value``.

        :meth:`propose` and :meth:`decide` pass their value through
        here.  An observer that keeps no events returns ``value``
        itself and keeps nothing.
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


def _built(rows: Iterable[tuple]) -> Iterator[ProtocolEvent]:
    """The events of ``(code, time, pid, ref, instance)`` rows, in order."""
    for code, time, pid, ref, k in rows:
        if code < RBROADCAST:
            yield _CLASSES[code](time, pid, ref)
        elif code < PROPOSE:
            yield _CLASSES[code](time, pid, ref, code & 1 == 1)
        elif code < CRASH:
            yield _CLASSES[code](time, pid, k, ref)
        else:
            yield CrashEvent(time, pid)


class TraceEvents:
    """Read-only sequence view of a :class:`Trace`'s events.

    It holds the trace's columns, not the trace (a trace that kept its
    view would be a reference cycle), so it follows the trace as it
    grows.  Iteration, indexing and slicing build the events they
    return; a view compares equal to a list (or view) of equal events.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: tuple) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[ProtocolEvent]:
        return _built(zip(*self._columns))

    def __getitem__(self, index: int | slice) -> Any:
        columns = self._columns
        positions = range(len(self))[index]
        if isinstance(index, slice):
            return list(_built(
                tuple(column[at] for column in columns) for at in positions
            ))
        return next(_built([tuple(column[positions] for column in columns)]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, TraceEvents)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TraceEvents({list(self)!r})"


class Trace(TraceObserver):
    """Append-only, time-ordered record of protocol events, as columns.

    Events arrive in simulated-time order because the engine is
    single-threaded; each recorder appends one row to the columns (see
    the module docstring) and builds an event object only when a sink
    is subscribed.  Each accessor picks its kinds off the kind column
    (``bytearray.translate`` and ``itertools.compress``, no Python
    step per event) and builds only the events it returns, so checkers
    never need isinstance ladders; a caller that visits every instance
    groups once instead (:meth:`first_decisions`), and :meth:`rows`
    reads the columns without building events at all.

    Every process builds its own copy of a proposed id set, and an
    instance's proposals and decisions are mostly equal, so
    :meth:`share` maps each value to an equal one recorded recently:
    the events of an instance then hold one ``frozenset`` between them.
    Its table keeps at most :data:`SHARE_TABLE_SIZE` values and starts
    over when full, so it costs O(1) memory whatever the run length.

    The pid column holds a byte, so a full trace records pids up to 255.
    """

    def __init__(
        self, sinks: Iterable[Callable[[ProtocolEvent], None]] = ()
    ) -> None:
        super().__init__(sinks)
        self._kinds = bytearray()
        self._pids = bytearray()
        self._times = array("d")
        #: The event's message, or its consensus value (None for a crash).
        self._refs: list[Any] = []
        #: The consensus instance (0 for the other kinds).
        self._instances = array("q")
        #: Events indexed so far, and process -> {mid: earliest
        #: r-delivery time among them}; :meth:`holders_at` extends the
        #: index on demand, so recording pays nothing for it.
        self._indexed = 0
        self._first_rdelivery: dict[ProcessId, dict[MessageId, float]] = {}
        #: Recently recorded consensus values, each mapped to itself.
        self._values: dict[frozenset[MessageId], frozenset[MessageId]] = {}

    @property
    def _columns(self) -> tuple:
        """The columns in row order: kind, time, pid, ref, instance."""
        return (
            self._kinds, self._times, self._pids, self._refs, self._instances
        )

    @property
    def events(self) -> TraceEvents:
        """Every recorded event, in order (a view; see :class:`TraceEvents`)."""
        return TraceEvents(self._columns)

    def share(self, value: frozenset[MessageId]) -> frozenset[MessageId]:
        """An equal value among the recent ones, else ``value`` (noted)."""
        values = self._values
        shared = values.get(value)
        if shared is None:
            if len(values) >= SHARE_TABLE_SIZE:
                values.clear()
            shared = values[value] = value
        return shared

    # ------------------------------------------------------------------
    # Recording: one row per event
    # ------------------------------------------------------------------

    def record(self, event: ProtocolEvent) -> None:
        """Append ``event``'s row, note a crash, feed the sinks."""
        cls = type(event)
        code, ref, instance = _CODES[cls], None, 0
        if cls is ProposeEvent or cls is DecideEvent:
            ref, instance = event.value, event.instance
        elif cls is CrashEvent:
            self._crashes[event.process] = event
        else:
            ref = event.message
            if cls is RBroadcastEvent or cls is RDeliverEvent:
                code += event.uniform
        self._kinds.append(code)
        self._pids.append(event.process)
        self._times.append(event.time)
        self._refs.append(ref)
        self._instances.append(instance)
        for sink in self.sinks:
            sink(event)

    def abroadcast(self, time: float, pid: ProcessId, message: AppMessage) -> None:
        self._kinds.append(ABROADCAST)
        self._pids.append(pid)
        self._times.append(time)
        self._refs.append(message)
        self._instances.append(0)
        if self.sinks:
            event = ABroadcastEvent(time, pid, message)
            for sink in self.sinks:
                sink(event)

    def adeliver(self, time: float, pid: ProcessId, message: AppMessage) -> None:
        self._kinds.append(ADELIVER)
        self._pids.append(pid)
        self._times.append(time)
        self._refs.append(message)
        self._instances.append(0)
        if self.sinks:
            event = ADeliverEvent(time, pid, message)
            for sink in self.sinks:
                sink(event)

    def rbroadcast(
        self, time: float, pid: ProcessId, message: AppMessage, uniform: bool
    ) -> None:
        self._kinds.append(RBROADCAST + uniform)
        self._pids.append(pid)
        self._times.append(time)
        self._refs.append(message)
        self._instances.append(0)
        if self.sinks:
            event = RBroadcastEvent(time, pid, message, uniform)
            for sink in self.sinks:
                sink(event)

    def rdeliver(
        self, time: float, pid: ProcessId, message: AppMessage, uniform: bool
    ) -> None:
        self._kinds.append(RDELIVER + uniform)
        self._pids.append(pid)
        self._times.append(time)
        self._refs.append(message)
        self._instances.append(0)
        if self.sinks:
            event = RDeliverEvent(time, pid, message, uniform)
            for sink in self.sinks:
                sink(event)

    def propose(
        self, time: float, pid: ProcessId, instance: int,
        value: frozenset[MessageId],
    ) -> None:
        value = self.share(value)
        self._kinds.append(PROPOSE)
        self._pids.append(pid)
        self._times.append(time)
        self._refs.append(value)
        self._instances.append(instance)
        if self.sinks:
            event = ProposeEvent(time, pid, instance, value)
            for sink in self.sinks:
                sink(event)

    def decide(
        self, time: float, pid: ProcessId, instance: int,
        value: frozenset[MessageId],
    ) -> None:
        value = self.share(value)
        self._kinds.append(DECIDE)
        self._pids.append(pid)
        self._times.append(time)
        self._refs.append(value)
        self._instances.append(instance)
        if self.sinks:
            event = DecideEvent(time, pid, instance, value)
            for sink in self.sinks:
                sink(event)

    # ------------------------------------------------------------------
    # Reading by kind
    # ------------------------------------------------------------------

    def _rows(self, classes: tuple[type, ...]) -> Iterator[tuple]:
        """The ``(code, time, pid, ref, instance)`` rows of the events of
        ``classes``, in recorded order."""
        return compress(
            zip(*self._columns), self._kinds.translate(_table(classes))
        )

    def select(
        self, *classes: type, process: ProcessId | None = None
    ) -> Iterator[ProtocolEvent]:
        """The events of ``classes`` (of one process, or all), built in
        recorded order; no event of another kind or process is built."""
        rows = self._rows(classes)
        if process is not None:
            rows = (row for row in rows if row[2] == process)
        return _built(rows)

    def rows(self, *classes: type) -> Iterator[tuple]:
        """``(class, time, process, ref, instance)`` per event of
        ``classes``, in recorded order, without building events:
        ``ref`` is the message, or the consensus value (None for a
        crash), and ``instance`` is 0 for a non-consensus event."""
        kinds, times, pids, refs, instances = self._columns
        return compress(
            zip(map(_CLASSES.__getitem__, kinds), times, pids, refs, instances),
            kinds.translate(_table(classes)),
        )

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------

    def abroadcasts(self) -> list[ABroadcastEvent]:
        """All ``abroadcast`` invocations, in time order."""
        return list(self.select(ABroadcastEvent))

    def adeliveries(self, process: ProcessId | None = None) -> list[ADeliverEvent]:
        """``adeliver`` events of one process (or all, time-ordered)."""
        return list(self.select(ADeliverEvent, process=process))

    def adelivery_sequence(self, process: ProcessId) -> list[MessageId]:
        """The sequence of message ids adelivered by ``process``."""
        return [
            message.mid for _, _, pid, message, _ in self.rows(ADeliverEvent)
            if pid == process
        ]

    def rbroadcasts(self) -> list[RBroadcastEvent]:
        return list(self.select(RBroadcastEvent))

    def rdeliveries(self, process: ProcessId | None = None) -> list[RDeliverEvent]:
        return list(self.select(RDeliverEvent, process=process))

    def _consensus(self, cls: type, instance: int | None) -> list:
        rows = self._rows((cls,))
        if instance is not None:
            rows = (row for row in rows if row[4] == instance)
        return list(_built(rows))

    def proposals(self, instance: int | None = None) -> list[ProposeEvent]:
        return self._consensus(ProposeEvent, instance)

    def decides(self, instance: int | None = None) -> list[DecideEvent]:
        return self._consensus(DecideEvent, instance)

    def instances(self) -> list[int]:
        """All consensus instance numbers that reached a decision."""
        return sorted({row[4] for row in self._rows((DecideEvent,))})

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
        # the new rows off the columns.
        index = self._first_rdelivery
        start, kinds = self._indexed, self._kinds
        if start < len(kinds):
            for _, when, pid, message, _ in compress(
                islice(zip(*self._columns), start, None),
                kinds[start:].translate(_table((RDeliverEvent,))),
            ):
                first = index.setdefault(pid, {})
                mid = message.mid
                if when < first.get(mid, inf):
                    first[mid] = when
            self._indexed = len(kinds)
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
        first: dict[int, tuple] = {}
        for _, time, pid, value, k in self.rows(DecideEvent):
            best = first.get(k)
            if best is None or time < best[0] or (
                time == best[0] and pid < best[1]
            ):
                first[k] = (time, pid, value)
        return {
            k: DecideEvent(time, pid, k, value)
            for k, (time, pid, value) in sorted(first.items())
        }

    def __len__(self) -> int:
        return len(self._kinds)


#: The order in which a decide event is the first of its instance.
_EARLIEST = attrgetter("time", "process")


class CountingTrace(TraceObserver):
    """Retains nothing but an event count and the crash record.

    The trace for probe-measured performance runs
    (``trace_mode="metrics"``): all measurement happens in the sinks
    (the metric probes), so the trace itself only has to answer the
    introspection queries that survive a run (who crashed, how many
    events flowed).  Each recorder counts and builds its event only
    for the sinks.
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

    def abroadcast(self, time: float, pid: ProcessId, message: AppMessage) -> None:
        self.events_seen += 1
        if self.sinks:
            event = ABroadcastEvent(time, pid, message)
            for sink in self.sinks:
                sink(event)

    def adeliver(self, time: float, pid: ProcessId, message: AppMessage) -> None:
        self.events_seen += 1
        if self.sinks:
            event = ADeliverEvent(time, pid, message)
            for sink in self.sinks:
                sink(event)

    def rbroadcast(
        self, time: float, pid: ProcessId, message: AppMessage, uniform: bool
    ) -> None:
        self.events_seen += 1
        if self.sinks:
            event = RBroadcastEvent(time, pid, message, uniform)
            for sink in self.sinks:
                sink(event)

    def rdeliver(
        self, time: float, pid: ProcessId, message: AppMessage, uniform: bool
    ) -> None:
        self.events_seen += 1
        if self.sinks:
            event = RDeliverEvent(time, pid, message, uniform)
            for sink in self.sinks:
                sink(event)

    def propose(
        self, time: float, pid: ProcessId, instance: int,
        value: frozenset[MessageId],
    ) -> None:
        self.events_seen += 1
        if self.sinks:
            event = ProposeEvent(time, pid, instance, value)
            for sink in self.sinks:
                sink(event)

    def decide(
        self, time: float, pid: ProcessId, instance: int,
        value: frozenset[MessageId],
    ) -> None:
        self.events_seen += 1
        if self.sinks:
            event = DecideEvent(time, pid, instance, value)
            for sink in self.sinks:
                sink(event)

    def instances(self) -> list[int]:
        """Decided instances are not retained here; ask the consensus
        probe (``metrics["consensus"]["instances_decided"]``)."""
        return []

    def __len__(self) -> int:
        return self.events_seen
