"""The discrete-event engine: a simulated clock and an event heap.

The engine is deliberately minimal: one pending-event store (the binary
heap of :mod:`repro.sim.equeue`) and one way in, :meth:`Engine.run`.
Protocol logic lives in layers; the engine only guarantees that
callbacks fire in non-decreasing time order and that ties are broken by
scheduling order, which — together with the named RNG streams of
:mod:`repro.sim.rng` — makes whole simulations bit-for-bit reproducible.

``run`` serves a call from one of two loops, both over that one heap:

* the **default loop** — the hot path, owned by the store itself
  (:meth:`EventQueue.drain`), so it runs on locals
  (``benchmarks/test_engine_run_loop.py`` tracks the ns/event figure).

* the **controlled loop**, entered only when a :class:`Scheduler` is
  installed.  Before each step it asks the scheduler how many upcoming
  steps it leaves free (:meth:`Scheduler.free_steps`) and drains that
  stretch through the default loop, reporting the events it fired
  (:meth:`Scheduler.on_stretch`).  At every other step it collects the
  *ready set* — all events tied at the minimum time — and lets the
  scheduler pick which fires, delay one by ``defer_delay``, or mutate
  the simulation (inject a crash) and be asked again.  This is the
  decision-point seam the systematic schedule exploration of
  :mod:`repro.explore` drives.  It pops and pushes heap entries
  directly and hands them to the scheduler as they are — bare
  fire-and-forget entries and :class:`EventHandle`\\ s alike, read by
  position.  Nothing is notified as events move, and nothing is
  attached to them: a scheduler that needs to know what an event is
  reads its callback and arguments (the explorer's
  :func:`~repro.explore.scheduler.event_of`).  Every ready-set choice
  the explorer's canonical form admits is made here, and its searches
  skip none of them, so one that reports ``exhausted`` ran every
  canonical schedule within its bounds.  With no scheduler installed
  none of this runs and traces are bit-identical to the pre-seam
  engine (golden-guarded by ``tests/stack/test_golden_traces.py``).

Both loops keep one budget rule: ``max_events`` caps
:attr:`Engine.events_executed`, the engine's lifetime count, and both
raise the overrun from one place (``Engine._overrun``), which names the
pending events by callback and the oldest due time.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from typing import Any, Callable

from repro.core.exceptions import ConfigurationError
from repro.sim.equeue import (
    CANCELLED,
    FINISHED,
    PENDING,
    _UNBOUNDED,
    EventBudgetExceeded,
    EventHandle,
    EventQueue,
)

__all__ = [
    "AGAIN",
    "DEFER",
    "FIRE",
    "Engine",
    "EventBudgetExceeded",
    "EventHandle",
    "Scheduler",
]

#: The record type a scheduler sees: the stored heap entry itself, a
#: bare ``[time, seq, fn, args, state]`` list or an :class:`EventHandle`.
_EventRecord = list


#: Scheduler decision opcodes (the first element of a ``decide`` result).
FIRE = "fire"      #: execute ready[index] now
DEFER = "defer"    #: re-key ready[index] ``defer_delay`` seconds later
AGAIN = "again"    #: scheduler mutated the simulation; re-collect and re-ask

#: Callbacks an overrun's diagnosis names (most frequent first).
_OVERRUN_TOP = 5


class Scheduler:
    """Decision-point hook consulted by the controlled run loop.

    Carries no per-instance state itself (``__slots__ = ()``);
    subclasses add their own attributes freely.

    Before each step the engine asks :meth:`free_steps` how many
    upcoming steps the scheduler leaves free: it fires those without
    consulting anybody, in the default ``(time, seq)`` order, then
    reports how many events that stretch fired (:meth:`on_stretch`).
    At every other step it hands ``decide`` the current ready set — the
    heap entries of every enabled event tied at the minimum pending
    time, in ``(time, seq)`` order.  Entries are read by position
    (``record[TIME]``, ``record[FN]``, ``record[ARGS]`` …, see
    :mod:`repro.sim.equeue`), bare and cancelable ones alike, and are
    read-only.  The return value is ``(op, index)``:

    * ``(FIRE, i)`` — execute ``ready[i]``.  The base implementation
      always answers ``(FIRE, 0)``, which reproduces the uncontrolled
      engine's ``(time, seq)`` order decision for decision.
    * ``(DEFER, i)`` — hold ``ready[i]`` back: it is re-enqueued
      :attr:`defer_delay` after now, behind everything already due
      then — a bounded-delay adversary, so the engine stays finite even
      against protocols that legitimately spin while a message is
      missing (rcv-gated consensus does).  The event is delayed, not
      cancelled: it stays pending, though one landing past ``until``
      executes only in a later ``run`` call — callers asserting
      delivery should gate on ``pending() == 0``, as the explorer's
      executor does.  A deferred frame *is* lost if its sender crashes
      first and the network's in-flight tracking cancels it.
    * ``(AGAIN, 0)`` — the scheduler changed the world itself (e.g.
      crashed a process); the engine re-collects the ready set (events
      may have been cancelled) and asks again at the same step.

    Installing a scheduler switches :meth:`Engine.run` onto the
    controlled loop; ``install_scheduler(None)`` restores the hot path.
    """

    __slots__ = ()

    #: Seconds a deferred event is delayed (the explorer's default).
    defer_delay: float = 5e-3

    def free_steps(self) -> int | None:
        """How many upcoming steps would ``decide`` answer ``(FIRE, 0)``
        without looking?  ``None`` means the rest of the run.

        The engine drains that stretch on the default loop, under the
        same budget, horizon and ``stop_when``, and asks again once it
        is over.  The base implementation answers ``0``: ``decide`` is
        consulted at every step unless a subclass knows better.
        """
        return 0

    def on_stretch(self, fired: int) -> None:
        """Called after each free stretch (even on error) with the
        number of events it fired: one per step, since every step of a
        stretch fires the head event."""

    def decide(
        self, now: float, ready: list[_EventRecord]
    ) -> tuple[str, int]:
        """Pick the next action for the current ready set."""
        return (FIRE, 0)


class Engine:
    """Single-threaded deterministic discrete-event loop.

    Typical use::

        engine = Engine()
        engine.schedule(0.5, print, "half a second of simulated time")
        engine.run(until=10.0)

    Simulated time is a float in **seconds**.  The engine never looks at
    wall-clock time; a simulation of hours of traffic completes in however
    long the callbacks take to execute.
    """

    __slots__ = (
        "now", "_queue", "_qpush", "_running", "_scheduler", "_closed",
        "events_executed",
    )

    def __init__(self) -> None:
        #: Current simulated time in seconds.  A plain slot: every
        #: layer reads it per step, and the run loops write it.
        self.now = 0.0
        self._queue = EventQueue()
        self._qpush = self._queue.push
        self._running = False
        self._scheduler: Scheduler | None = None
        self._closed = False
        #: Callbacks executed over the engine's lifetime; ``max_events``
        #: caps this count (see :meth:`run`).
        self.events_executed = 0

    @property
    def scheduler(self) -> Scheduler | None:
        """The installed decision-point scheduler, if any."""
        return self._scheduler

    @property
    def equeue(self) -> EventQueue:
        """The pending-event store (see :mod:`repro.sim.equeue`)."""
        return self._queue

    def install_scheduler(self, scheduler: Scheduler | None) -> None:
        """Install (or with ``None`` remove) the decision-point scheduler.

        Must not be called while the engine is running.
        """
        if self._running:
            raise ConfigurationError(
                "cannot install a scheduler while the engine is running"
            )
        self._scheduler = scheduler

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ConfigurationError(f"cannot schedule in the past: delay={delay}")
        return self._qpush(self.now + delay, fn, args)

    def schedule_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ConfigurationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        return self._qpush(time, fn, args)

    def pending(self) -> int:
        """Number of not-yet-cancelled events still in the queue.

        O(1): a live counter maintained by ``schedule``/``cancel`` and
        the run loop, instead of a scan over the whole store.  Deferred
        events count — they are still due to fire.
        """
        return self._queue.pending

    def close(self) -> None:
        """Drop every pending event and the scheduler: the run is over.

        The heap's entries hold the layers' bound methods (and each
        handle points back at the store), so a finished engine keeps its
        whole system alive in reference cycles.  Closing cuts them;
        ``now`` and ``events_executed`` stay readable.  Idempotent; a
        closed engine refuses to :meth:`run`.
        """
        if self._running:
            raise ConfigurationError("cannot close the engine while it runs")
        self._closed = True
        # Fresh containers rather than ``clear()`` calls: the old ones
        # go with their last reference, and closing costs no C calls.
        queue = self._queue
        queue.entries = []
        queue.pending = queue._cancelled = 0
        self._scheduler = None

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Advance simulated time: the one way to run the engine.

        Args:
            until: Stop once the next event would fire strictly after this
                time (the clock is advanced to ``until``).  ``None`` runs
                until no event remains.  The clock never runs backwards:
                an ``until`` before :attr:`now` is refused.
            max_events: Runaway guard on :attr:`events_executed`, the
                engine's *lifetime* count: :class:`EventBudgetExceeded`
                is raised once that many callbacks have run in all, over
                however many calls; a phased run passes one cap to each.
            stop_when: Optional predicate evaluated after every callback;
                the loop exits as soon as it returns true.  One that
                cannot hold while load is offered belongs on a second
                call only: ``run(until=loaded, max_events=cap)``, then
                ``run(until=horizon, max_events=cap, stop_when=done)``.

        Returns:
            The simulated time at which the run stopped.
        """
        if self._running:
            raise RuntimeError("Engine.run is not reentrant")
        if self._closed:
            raise ConfigurationError(
                "cannot run a closed engine: close() dropped every "
                "pending event"
            )
        if until is not None and until < self.now:
            raise ConfigurationError(
                f"cannot run until {until}, current time is {self.now}"
            )
        self._running = True
        try:
            if self._scheduler is None:
                self._queue.drain(self, until, max_events, stop_when)
            else:
                self._run_controlled(until, max_events, stop_when)
        finally:
            self._running = False
        return self.now

    def _run_controlled(
        self,
        until: float | None,
        max_events: int | None,
        stop_when: Callable[[], bool] | None,
    ) -> None:
        """The scheduler-consulted loop (see :class:`Scheduler`).

        Identical semantics to the default loop when the scheduler
        always answers ``(FIRE, 0)``; every deviation from that answer
        is an explored schedule.  Entries are handled by position
        (``entry[TIME]`` …), like the drain.
        """
        scheduler = self._scheduler
        queue = self._queue
        heap = queue.entries
        budget = _UNBOUNDED if max_events is None else max_events
        while True:
            free = scheduler.free_steps()
            if free != 0:
                before = self.events_executed
                try:
                    paused = queue.drain(
                        self, until, max_events, stop_when, free
                    )
                finally:
                    scheduler.on_stretch(self.events_executed - before)
                if not paused:
                    return
                continue
            while heap and heap[0][4] == CANCELLED:
                heappop(heap)
                queue._cancelled -= 1
            if not heap:
                if until is not None:
                    self.now = max(self.now, until)
                return
            time = heap[0][0]
            if until is not None and time > until:
                self.now = until
                return
            # Ready set: every enabled event tied at the minimum time,
            # in (time, seq) order; ``tied`` keeps the tombstones too,
            # to go back on the heap.
            ready: list[_EventRecord] = []
            tied: list[_EventRecord] = []
            while heap and heap[0][0] == time:
                entry = heappop(heap)
                tied.append(entry)
                if entry[4] != CANCELLED:
                    ready.append(entry)
            if not ready:
                queue._cancelled -= len(tied)
                continue
            op, index = scheduler.decide(time, ready)
            if op == AGAIN:
                for entry in tied:
                    heappush(heap, entry)
                continue
            if op not in (FIRE, DEFER):  # pragma: no cover - defensive
                raise ConfigurationError(
                    f"scheduler returned unknown op {op!r}"
                )
            chosen = ready[index]
            for entry in tied:
                if entry is not chosen:
                    heappush(heap, entry)
            if op == DEFER:
                # Re-keyed behind everything already due then.
                chosen[0] = time + scheduler.defer_delay
                queue.seq += 1
                chosen[1] = queue.seq
                heappush(heap, chosen)
                continue
            self.now = time
            chosen[4] = FINISHED
            queue.pending -= 1
            self.events_executed += 1
            chosen[2](*chosen[3])
            if self.events_executed >= budget:
                raise self._overrun(max_events)
            if stop_when is not None and stop_when():
                return

    def _overrun(self, max_events: int) -> EventBudgetExceeded:
        """The runaway guard's error, raised by both run loops: the live
        pending events by callback, most frequent first, and the oldest
        due time — a livelock reschedules itself."""
        live = [e for e in self._queue.entries if e[4] == PENDING]
        message = (
            f"simulation exceeded max_events={max_events} "
            f"at t={self.now:.6f}s (likely a protocol livelock)"
        )
        if not live:
            return EventBudgetExceeded(f"{message}; no event pending")
        counts = Counter(
            getattr(e[2], "__qualname__", None) or type(e[2]).__qualname__
            for e in live
        )
        top = ", ".join(
            f"{name} x{count}"
            for name, count in counts.most_common(_OVERRUN_TOP)
        )
        return EventBudgetExceeded(
            f"{message}; {len(live)} pending, oldest due at "
            f"t={min(e[0] for e in live):.6f}s; by callback: {top}"
        )
