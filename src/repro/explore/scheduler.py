"""The exploring scheduler: decisions and menus.

One *schedule* is described as a sparse list of :class:`Deviation`\\ s
from the engine's default ``(time, seq)`` order: at decision step ``N``
(the ``N``-th time the controlled run loop consults the scheduler),
fire a non-head ready event (``f``), hold a ready link delivery back
by a bounded delay (``d``), or crash a process (``c``).  Steps
with no deviation take the default, so the empty schedule replays the
uncontrolled engine bit for bit and a repro string like
``"4:d1,5:d1,23:c2"`` fully determines a run.

While it plays a schedule the scheduler can record, per step, the
*menu* of alternatives that were available — how many events were
tied, which were deferrable, who could crash.  Search strategies
expand new schedules from these menus.

Recording is demand-driven.  A tree search only ever expands a schedule
at steps *after* its last deviation, so it hands the scheduler exactly
that *window* (``record_from``).  The scheduler looks only where it has
something to do:

* at each step of the window it records a menu;
* at each deviation step it evaluates the deferrable/crashable sets,
  solely to validate the deviation;
* at the step just before either, it notes the event that fires: the
  last fired event is the crash-placement gate, and its key says which
  frames have lost their deferrability.

Every other step is free (:meth:`~ExploreScheduler.free_steps`): the
engine drains it on the store's plain loop and reports the event count,
which keeps ``steps`` exact.  The default (``record_from=0``) records
every step; ``record_from=None`` records nothing and looks at its
deviations only (replay, shrinking, leaf schedules of a search).

Deviation vocabulary and canonical form:

* ``f<i>`` — fire ``ready[i]`` instead of ``ready[0]``: reorders
  same-time ties, the delivery interleaving nondeterminism.
* ``d<i>`` — defer ``ready[i]`` (hold it back ``defer_delay``
  seconds); only **data frame deliveries** are deferrable (control
  traffic is small and fast on a real LAN, bulk data is what crawls —
  the Section 2.2 style of adversity), and only until an event has
  fired while the frame was ready.  Deferring later would reach the
  same states through a longer prefix, so the canonical form keeps the
  search space free of that redundancy.
* ``c<pid>`` — crash ``pid`` before anything at this step fires.  A
  crash is allowed while the crash budget lasts, and only at step 0 or
  right after an event *involving* ``pid`` (its own timer or crash, or
  any event carrying a frame it sent or received — on the contention
  model every stage of the frame's path): between two events that do
  not involve ``pid``, crashing it now or earlier is indistinguishable,
  so those placements are canonicalised away too.

The canonical form is what the tree searches enumerate, with no
further reduction: a search that reports ``exhausted`` ran every
canonical schedule within its bounds.

What an event is — timer, crash, link delivery — is read off its heap
entry by :func:`event_of`; nothing is attached to events as they are
scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MethodType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.core.exceptions import ConfigurationError
from repro.net.frame import Frame, is_data_kind
from repro.net.models import Network
from repro.sim.engine import (
    AGAIN,
    DEFER,
    FIRE,
    EventHandle,
    Scheduler,
    _EventRecord,
)
from repro.sim.equeue import ARGS, FN, SEQ, TIME
from repro.sim.process import SimProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stack.builder import System


# ----------------------------------------------------------------------
# Event kinds
# ----------------------------------------------------------------------

#: The callbacks :func:`event_of` recognises, by identity.
_GUARDED = SimProcess._guarded
_CRASH = SimProcess.crash
_DELIVER = Network._deliver


def event_of(record: _EventRecord) -> tuple[str, int] | Frame | None:
    """What a pending event is, read from its callback and arguments.

    ``("timer", pid)`` for a process timer (a bound
    :meth:`SimProcess._guarded`), ``("crash", pid)`` for a scheduled
    :meth:`SimProcess.crash`, the frame itself for a *link delivery* —
    a handle a network scheduled on :meth:`Network._deliver` (a
    delivery queued on a receiver CPU is a bare stage entry, not a link
    delivery) — and ``None`` for anything else.  Bare entries and
    handles alike are read by position.
    """
    fn = record[FN]
    if type(fn) is not MethodType:
        return None
    func = fn.__func__
    if func is _GUARDED:
        return ("timer", fn.__self__.pid)
    if func is _CRASH:
        return ("crash", fn.__self__.pid)
    if func is _DELIVER and type(record) is EventHandle:
        return record[ARGS][0]
    return None


# ----------------------------------------------------------------------
# Deviations and repro strings
# ----------------------------------------------------------------------

_OPS = ("f", "d", "c")


@dataclass(frozen=True, slots=True, order=True)
class Deviation:
    """One departure from the default schedule at decision step ``step``.

    ``op`` is ``"f"`` (fire ready[arg]), ``"d"`` (defer ready[arg]) or
    ``"c"`` (crash process ``arg``).
    """

    step: int
    op: str
    arg: int

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigurationError(
                f"unknown deviation op {self.op!r}; choose from {_OPS}"
            )
        if self.step < 0 or self.arg < 0:
            raise ConfigurationError(
                f"deviation step/arg must be >= 0, got {self!r}"
            )

    def __str__(self) -> str:
        return f"{self.step}:{self.op}{self.arg}"


def format_deviations(deviations: Iterable[Deviation]) -> str:
    """The repro string of a schedule: ``"4:d1,5:d1,23:c2"``."""
    return ",".join(str(d) for d in sorted(deviations))


def parse_deviations(text: str) -> tuple[Deviation, ...]:
    """Parse a repro string back into a deviation tuple."""
    text = text.strip()
    if not text:
        return ()
    deviations = []
    for part in text.split(","):
        part = part.strip()
        try:
            step_text, action = part.split(":")
            deviations.append(
                Deviation(int(step_text), action[0], int(action[1:]))
            )
        except (ValueError, IndexError):
            raise ConfigurationError(
                f"malformed deviation {part!r} (expected STEP:f<i>|d<i>|c<pid>)"
            ) from None
    steps = [d.step for d in deviations]
    if len(set(steps)) != len(steps):
        # One decision per step: a duplicate would be silently shadowed
        # at replay time, making the string lie about the schedule.
        raise ConfigurationError(
            f"repro string schedules two deviations at the same step: {text!r}"
        )
    return tuple(sorted(deviations))


# ----------------------------------------------------------------------
# Menus
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Menu:
    """The alternatives available at one decision step of one run."""

    step: int
    ready: int
    deferrable: tuple[int, ...]
    crashable: tuple[int, ...]

    def alternatives(self) -> int:
        """Number of non-default decisions available here."""
        return (self.ready - 1) + len(self.deferrable) + len(self.crashable)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------


class ExploreScheduler(Scheduler):
    """Plays a deviation schedule and records the menus it passed by.

    Args:
        system: The system under exploration (crash deviations need the
            processes).
        deviations: Sparse schedule, keyed by decision step.
        max_crashes: Crash budget for ``c`` deviations.
        defer_delay: Passed through to the engine (see
            :attr:`repro.sim.engine.Scheduler.defer_delay`): how many
            seconds a deferred frame is held back.
        record_from: First step whose menu is recorded (the module
            docstring's *window*); ``None`` records nothing.

    A deviation that does not apply at its step — index beyond the
    ready set, pid not crashable, defer of a non-deferrable event — is
    *skipped* (the default decision is taken) and counted in
    ``skipped``; lenient replay is what lets the shrinker drop earlier
    deviations without invalidating later ones wholesale.
    """

    def __init__(
        self,
        system: "System",
        deviations: Mapping[int, Deviation] | Iterable[Deviation] = (),
        *,
        max_crashes: int = 0,
        defer_delay: float = 5e-3,
        record_from: int | None = 0,
    ) -> None:
        if not isinstance(deviations, Mapping):
            listed = tuple(deviations)
            deviations = {d.step: d for d in listed}
            if len(deviations) != len(listed):
                raise ConfigurationError(
                    f"schedule has two deviations at one step: {listed}"
                )
        self.system = system
        self.deviations = dict(deviations)
        self.max_crashes = max_crashes
        self.defer_delay = defer_delay
        self._record_from = record_from
        #: Recorded menus, in step order.
        self.menus: list[Menu] = []
        #: Deviations actually applied (same objects as scheduled).
        self.applied: list[Deviation] = []
        #: Scheduled deviations that could not be applied at their step.
        self.skipped: list[Deviation] = []
        self.steps = 0
        self.crashes_done = 0
        # The process set is fixed for a run (crashed ones stay listed).
        self._processes = sorted(system.processes.items())
        self._queue = system.engine.equeue
        # The previously fired event: only processes it involved may
        # crash now (crash placement gate); before the first one every
        # alive process qualifies.
        self._last_fired: _EventRecord | None = None
        # Its due time, and the queue's seq counter just before it
        # fired: a record due then with a seq at most that was ready
        # when it fired (see ``_deferrable``).
        self._last_fire_key: tuple[float | None, int] = (None, 0)

    def free_steps(self) -> int | None:
        """Steps up to the one before the next step this scheduler
        looks at (the module docstring's list); ``None`` past the last.
        """
        step = self.steps
        upcoming = [s for s in self.deviations if s >= step]
        if self._record_from is not None:
            upcoming.append(self._record_from)
        if not upcoming:
            return None
        return max(min(upcoming) - step - 1, 0)

    def on_stretch(self, fired: int) -> None:
        self.steps += fired

    # -- involvement ---------------------------------------------------

    @staticmethod
    def _pids_of(record: _EventRecord) -> frozenset[int]:
        """The processes an event involves: the pid of its timer or
        crash, otherwise both endpoints of the frame it carries,
        otherwise nobody."""
        kind = event_of(record)
        if type(kind) is tuple:
            return frozenset((kind[1],))
        args = record[ARGS]
        if args and type(args[0]) is Frame:
            return frozenset((args[0].src, args[0].dst))
        return frozenset()

    def _deferrable(self, ready: Sequence[_EventRecord]) -> tuple[int, ...]:
        # Canonical form: a frame stops being deferrable once a protocol
        # event has *fired* while it was ready — deferring it later
        # reaches the same states through a longer prefix.  Once a
        # frame is ready, every fire until its own is at its due time,
        # so it has fired beside one iff the last fire was at its due
        # time and after it got its current key.  Defers and crashes
        # at the same tie group do not consume deferrability, so
        # chained defers ("hold back both copies of m") stay
        # expressible.
        fire_time, fire_seq = self._last_fire_key
        indices = []
        for i, record in enumerate(ready):
            frame = event_of(record)
            if type(frame) is not Frame or not is_data_kind(frame.kind):
                continue
            if record[TIME] == fire_time and record[SEQ] <= fire_seq:
                continue
            indices.append(i)
        return tuple(indices)

    def _crashable(self) -> tuple[int, ...]:
        if self.crashes_done >= self.max_crashes:
            return ()
        if self._last_fired is None:
            return tuple(pid for pid, p in self._processes if not p.crashed)
        context = self._pids_of(self._last_fired)
        return tuple(
            pid for pid, p in self._processes
            if not p.crashed and pid in context
        )

    def _record(self, step: int, ready: Sequence[_EventRecord]) -> Menu:
        """Append this step's menu."""
        menu = Menu(
            step=step,
            ready=len(ready),
            deferrable=self._deferrable(ready),
            crashable=self._crashable(),
        )
        self.menus.append(menu)
        return menu

    # -- the seam ------------------------------------------------------

    def decide(self, now: float, ready: list[_EventRecord]) -> tuple[str, int]:
        step = self.steps
        self.steps = step + 1
        deviation = self.deviations.get(step)
        menu = None
        record_from = self._record_from
        if record_from is not None and step >= record_from:
            menu = self._record(step, ready)

        decision: tuple[str, int] = (FIRE, 0)
        if deviation is not None:
            # Outside the window the alternatives are evaluated only
            # here, to validate the deviation that names them.
            op, arg = deviation.op, deviation.arg
            if op == "f" and 0 < arg < len(ready):
                decision = (FIRE, arg)
            elif op == "d" and arg in (
                self._deferrable(ready) if menu is None else menu.deferrable
            ):
                decision = (DEFER, arg)
            elif op == "c" and arg in (
                self._crashable() if menu is None else menu.crashable
            ):
                self.system.processes[arg].crash()
                self.crashes_done += 1
                decision = (AGAIN, 0)
            else:
                self.skipped.append(deviation)
                deviation = None
            if deviation is not None:
                self.applied.append(deviation)

        if decision[0] == FIRE:
            # Only a fired event advances protocol state: it both
            # consumes the ready frames' deferrability and resets the
            # crash-placement context.  Defers and crashes leave the
            # tie group open.
            self._last_fired = ready[decision[1]]
            self._last_fire_key = (now, self._queue.seq)
        return decision
