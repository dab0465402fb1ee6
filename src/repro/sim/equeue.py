"""The engine's pending-event store: one binary heap of list entries.

The engine's contract is small and strict: events fire in
non-decreasing ``time`` order, ties broken by scheduling order
(``seq``), and the whole thing is bit-for-bit deterministic.
:class:`EventQueue` keeps that contract with a single ``heapq`` min-heap
and owns what goes with it: the monotonically increasing sequence
counter, the O(1) ``pending`` count, and the run loop itself
(``Engine.run`` delegates to :meth:`EventQueue.drain` whenever no
scheduler decides, so the hot loop runs on locals instead of paying a
method call per event).

**One entry per event.**  A heap entry is one mutable list
``[time, seq, fn, args, state]`` (positions :data:`TIME` …
:data:`STATE`).  ``heapq`` compares the leading ``(time, seq)`` pair in
C; ``seq`` is unique per queue, so the comparison never reaches ``fn``.
The entry is the only allocation a fire-and-forget event makes
(:meth:`EventQueue.push_entry`, or the same push inlined in
:meth:`~repro.sim.resources.FifoResource.stage` for resource
completions).  ``state`` is the lifecycle: :data:`PENDING`,
:data:`CANCELLED` or :data:`FINISHED`.

**Handles are entries too.**  :meth:`EventQueue.push` — the cancelable
``Engine.schedule`` / ``schedule_at`` path — stores an
:class:`EventHandle`: a ``list`` subclass holding the same five fields
plus its queue, with read-only ``time``/``seq``/``fn``/``args``/
``state`` properties and ``cancel()``.  Whoever reads pending events —
the engine's controlled loop, the explorer — reads bare entries and
handles alike, by position.  The store notifies nobody of a push, fire
or cancel: whoever needs the pending set reads ``entries``.

Cancellation is lazy — ``cancel`` flags the entry and the drain skips
tombstones — but bounded: the queue counts live tombstones and compacts
the heap in place once they are the majority (see
:meth:`EventQueue.note_cancel`), so timer churn (failure detectors
re-arming per heartbeat) cannot pile up dead entries at the head.
``tests/sim/test_equeue.py`` holds the store to a sorted-list reference
model through adversarial schedules; the golden-trace suite pins
whole-simulation bit-identity on top.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

#: Field positions in every heap entry (handles append their queue).
TIME, SEQ, FN, ARGS, STATE = range(5)
#: Lifecycle values of ``entry[STATE]``.
PENDING, CANCELLED, FINISHED = range(3)

_INF = float("inf")
#: The lifetime event cap when ``max_events`` is ``None`` (a plain
#: "unbounded" sentinel).
_UNBOUNDED = 1 << 62
#: Tombstones must number at least this many — and outnumber live
#: entries — before a compaction pass is worth its O(n).
_COMPACT_MIN = 64


class EventBudgetExceeded(RuntimeError):
    """``Engine.run`` exceeded its ``max_events`` runaway guard.

    A dedicated type so callers (the schedule explorer's executor)
    can treat the guard specifically without masking unrelated
    ``RuntimeError``\\ s raised by protocol callbacks.  The message
    names the pending events by callback and the oldest due time.
    """


class EventHandle(list):
    """A cancelable heap entry: ``[time, seq, fn, args, state, queue]``.

    The object :meth:`Engine.schedule` returns *is* the stored entry,
    so a cancelable event costs one allocation.
    """

    __slots__ = ()

    # Identity hashing: a holder may key dicts and sets on its handles.
    # Two distinct handles never compare equal (their ``seq`` differs),
    # so this agrees with the inherited list equality.
    __hash__ = object.__hash__

    time = property(itemgetter(TIME), doc="Due time (simulated seconds).")
    seq = property(itemgetter(SEQ), doc="Tie-break counter of the heap key.")
    fn = property(itemgetter(FN), doc="The callback.")
    args = property(itemgetter(ARGS), doc="The callback's arguments.")
    state = property(itemgetter(STATE), doc="PENDING, CANCELLED or FINISHED.")

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent).

        A no-op once the callback has already executed — there is
        nothing left to prevent.
        """
        if self[STATE]:
            return
        self[STATE] = CANCELLED
        self[5].note_cancel()

    @property
    def cancelled(self) -> bool:
        return self[STATE] == CANCELLED

    @property
    def finished(self) -> bool:
        """True once the callback has executed."""
        return self[STATE] == FINISHED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = ("pending", "cancelled", "finished")[self[STATE]]
        return f"EventHandle(t={self[TIME]!r}, {status})"


class EventQueue:
    """The pending-event heap and its counters.

    * ``entries`` — the ``heapq`` list.  Public: the engine's
      controlled loop pops and pushes entries directly.
    * ``seq`` — the tie-break counter; one increment per push, so it
      also counts every event ever scheduled.
    * ``pending`` — live (scheduled, not yet fired, not cancelled)
      events; O(1) by maintenance.
    """

    __slots__ = ("entries", "seq", "pending", "_cancelled")

    def __init__(self) -> None:
        self.entries: list[list] = []
        self.seq = 0
        self.pending = 0
        #: Tombstones still physically stored; drives compaction.
        self._cancelled = 0

    def push(
        self, time: float, fn: Callable[..., None], args: tuple[Any, ...]
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at ``time``; returns the cancelable handle."""
        self.seq = seq = self.seq + 1
        handle = EventHandle((time, seq, fn, args, PENDING, self))
        heappush(self.entries, handle)
        self.pending += 1
        return handle

    def push_entry(
        self, time: float, fn: Callable[..., None], args: tuple[Any, ...]
    ) -> list:
        """Schedule a fire-and-forget ``fn(*args)``; returns the bare entry.

        The entry cannot be cancelled; its holder may read
        ``entry[STATE]``.
        """
        self.seq = seq = self.seq + 1
        entry = [time, seq, fn, args, PENDING]
        heappush(self.entries, entry)
        self.pending += 1
        return entry

    def note_cancel(self) -> None:
        """Account one cancellation; compact if tombstones dominate.

        Called by :meth:`EventHandle.cancel`.  Compaction triggers only
        when at least ``_COMPACT_MIN`` tombstones exist *and* they are
        at least half the stored entries, so the amortized cost per
        cancel is O(1) and a cancel-heavy run never scans a mostly-live
        heap.
        """
        self.pending -= 1
        cancelled = self._cancelled = self._cancelled + 1
        if cancelled >= _COMPACT_MIN and cancelled * 2 >= len(self.entries):
            self._compact()

    def _compact(self) -> None:
        # In place: the drain loop binds the list object once, so the
        # identity must survive a compaction triggered by a cancel
        # inside a callback.  Decrement by what was removed rather than
        # resetting: tombstones can also sit outside the heap (the tie
        # group the controlled loop holds while its scheduler decides,
        # where an injected crash may cancel one).
        entries = self.entries
        before = len(entries)
        entries[:] = [e for e in entries if not e[STATE]]
        heapify(entries)
        self._cancelled -= before - len(entries)

    def drain(
        self,
        engine: "Engine",
        until: float | None,
        max_events: int | None,
        stop_when: Callable[[], bool] | None,
        steps: int | None = None,
    ) -> bool:
        """The scheduler-free run loop (see ``Engine.run``).

        ``max_events`` caps ``engine.events_executed``, the engine's
        lifetime count, which the loop keeps in a local and writes back
        on exit; an overrun raises what ``Engine._overrun`` builds.
        ``steps`` (at least 1) pauses the loop once that many events
        have fired: the controlled loop drains a scheduler's free
        stretch this way.  Returns whether it paused there — ``False``
        means the run is over (horizon, empty queue or ``stop_when``).
        """
        entries = self.entries
        pop = heappop
        until_f = _INF if until is None else until
        budget = _UNBOUNDED if max_events is None else max_events
        executed = engine.events_executed
        # One comparison per event serves both the budget and the pause.
        limit = budget if steps is None else min(budget, executed + steps)
        # Field positions are literals here (see TIME … STATE): the
        # per-event path skips four global loads.
        try:
            while entries:
                entry = pop(entries)
                if entry[4]:  # a cancelled tombstone
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if time > until_f:
                    # Not due in this run: back where it was.
                    heappush(entries, entry)
                    engine.now = until
                    return False
                engine.now = time
                entry[4] = 2  # FINISHED
                self.pending -= 1
                executed += 1
                entry[2](*entry[3])
                # The callback may have scheduled or cancelled events.
                if executed >= limit:
                    if executed >= budget:
                        raise engine._overrun(max_events)
                    return stop_when is None or not stop_when()
                if stop_when is not None and stop_when():
                    return False
            if until is not None and until > engine.now:
                engine.now = until
            return False
        finally:
            engine.events_executed = executed
