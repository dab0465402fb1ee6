"""State fingerprints for the explorer: what a pending event is
(:func:`event_of`), canonical descriptions, and the fingerprint
computed from them when it is read.

Fingerprints partition decision prefixes into equivalence classes the
search strategies prune on: two prefixes with equal fingerprints left
the simulation in (apparently) the same scheduler-visible state, so
exploring both is redundant — symmetric interleavings of independent
deliveries being the common case.  What matters for search results is
therefore the *partition*, not the literal hash strings.

A fingerprint is computed when it is read (:class:`Fingerprinter`),
from the state it describes: the pending records (heap plus the in-hand
ready set), the crash record and every process's adelivery sequence.
The pending multiset folds with a modular *sum* of description hashes
(not XOR: XOR would cancel duplicate pairs of identical descriptions,
and duplicated frames are exactly what retransmission schedules create)
plus an explicit count; the order-*sensitive* adelivery sequences fold
with a multiply-accumulate.  Hashes come from
SHA-256 of the description's ``repr`` — never Python's randomized
``hash()`` — so values are stable across worker processes, a
requirement for the sharded parallel search.

Protocol layers hold internal state (round numbers, ack counters,
received stores) a fingerprint cannot see, so matching
fingerprints do **not** guarantee identical futures: pruning on them is
a *symmetry heuristic* aimed at reorderings of independent events —
which do converge to genuinely identical global states — and may in
principle also collapse prefixes that differ only in hidden layer
state.  An ``exhausted`` search result is therefore "exhausted modulo
fingerprint equivalence", not a proof; disable ``ExploreSpec.prune``
for the strictly-complete (and much slower) enumeration.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from types import MethodType
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.identifiers import MessageId
from repro.net.frame import Frame
from repro.net.models import Network
from repro.sim.engine import EventHandle, _EventRecord
from repro.sim.equeue import ARGS, FN, TIME
from repro.sim.process import SimProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stack.builder import System

__all__ = [
    "Fingerprinter",
    "describe_record",
    "event_of",
]

_MASK = (1 << 128) - 1
#: Multiplier of the ordered (multiply-accumulate) folds; the FNV-64
#: prime — any odd constant with good bit dispersion works, it only
#: needs to be fixed forever (fingerprints cross process boundaries).
_PRIME = 1099511628211


def _describe_value(value: Any) -> Any:
    """Canonical, schedule-invariant description of a payload value.

    ``Frame.seq`` is deliberately excluded (it is a global diagnostic
    counter: two frames carrying the same protocol content in two
    different interleavings must describe identically), and unordered
    collections are sorted.
    """
    if isinstance(value, Frame):
        return (
            "frame",
            value.src,
            value.dst,
            value.kind,
            bool(value.control),
            value.size,
            _describe_value(value.body),
        )
    if isinstance(value, MessageId):
        # A tuple underneath; described by name so the generic tuple
        # branch below cannot flatten it into a bare pair.
        return repr(value)
    if isinstance(value, (frozenset, set)):
        return ("set",) + tuple(
            sorted((repr(_describe_value(v)) for v in value))
        )
    if isinstance(value, (tuple, list)):
        return tuple(_describe_value(v) for v in value)
    if isinstance(value, dict):
        return tuple(
            (repr(_describe_value(k)), _describe_value(v))
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
    if value is None or isinstance(value, (int, float, str, bool, bytes)):
        return value
    # *Frozen* dataclasses (AppMessage, Payload, rules...)
    # have deterministic, immutable reprs; anything else — including
    # non-frozen dataclasses like the live ``System``, whose repr
    # embeds ``object.__repr__`` addresses and mutable process state —
    # falls back to its type name, so a record's description never
    # changes while it sits in the queue and never differs between two
    # runs of the same schedule.
    if hasattr(value, "__dataclass_fields__"):
        params = getattr(value, "__dataclass_params__", None)
        if params is not None and params.frozen:
            return repr(value)
    return type(value).__qualname__


def _describe_callable(fn: Any) -> str:
    name = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    owner = getattr(fn, "__self__", None)
    pid = getattr(owner, "pid", None)
    if pid is None and owner is not None:
        process = getattr(owner, "process", None)
        pid = getattr(process, "pid", None)
    return f"{name}@p{pid}" if pid is not None else name


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


def describe_record(record: _EventRecord) -> tuple:
    """Canonical description of one pending event (for fingerprints)."""
    args = record[ARGS]
    kind = event_of(record)
    if type(kind) is tuple and kind[0] == "timer":
        # SimProcess._guarded(fn, args): a timer is described by the
        # protocol callback it guards, not by the guard.
        name, args = _describe_callable(args[0]), args[1]
    else:
        name = _describe_callable(record[FN])
    return (
        repr(record[TIME]),
        name,
        _describe_value(tuple(args)),
        _describe_value(kind),
    )


def _hash_description(description: Any) -> int:
    """Stable 128-bit hash of a canonical description."""
    return int.from_bytes(
        hashlib.sha256(repr(description).encode()).digest()[:16], "big"
    )


class Fingerprinter:
    """Reads the state fingerprint of one controlled run.

    :meth:`fingerprint` is the per-decision-step read.  Each record's
    description hash is memoised under its ``seq``, for the records the
    last read found pending (bare entries cannot be hashed; a defer
    re-keys both time and ``seq``, so a deferred record is described
    anew): a record is described at most once per lifetime state, and
    only if a read finds it pending — everything pushed and fired
    between two reads (the whole replayed prefix of a windowed search
    run, see :mod:`repro.explore.scheduler`) is never described.
    Adelivery sequences are append-only, so each process's ordered fold
    extends by the new entries only.
    """

    __slots__ = (
        "_queue", "_memo", "_procs", "_adeliv", "_consumed",
        "_folds",
    )

    def __init__(self, system: "System") -> None:
        self._queue = system.engine.equeue
        #: seq -> description hash, for the records pending at the
        #: last read.
        self._memo: dict[int, int] = {}
        # Per-process state, hoisted once: the process set is fixed for
        # the lifetime of a run (crashed processes stay registered).
        processes = system.processes
        pids = sorted(processes)
        self._procs = [(pid, processes[pid]) for pid in pids]
        sequences = system.trace._adeliveries
        self._adeliv = [(pid, sequences[pid]) for pid in pids]
        self._consumed = [0] * len(pids)
        self._folds = [0] * len(pids)

    def _delivery_fold(self) -> int:
        consumed = self._consumed
        folds = self._folds
        total = 0
        for i, (pid, events) in enumerate(self._adeliv):
            n = len(events)
            seen = consumed[i]
            if n > seen:
                fold = folds[i]
                for event in events[seen:]:
                    fold = (
                        fold * _PRIME + _hash_description(event.message.mid)
                    ) & _MASK
                folds[i] = fold
                consumed[i] = n
            total = (total * _PRIME + folds[i] + pid) & _MASK
        return total

    def fingerprint(self, ready: Iterable[_EventRecord] = ()) -> str:
        """The current state fingerprint.

        ``ready`` is the ready set the engine holds in hand, off the
        heap while the scheduler decides.
        """
        memo = self._memo
        live: dict[int, int] = {}
        total = 0
        # Positions as in the engine's loops: [1] is the seq, [4] the
        # state (non-zero once fired or cancelled).
        for record in chain(self._queue.entries, ready):
            if record[4]:
                continue
            seq = record[1]
            if seq in memo:
                h = memo[seq]
            else:
                h = _hash_description(describe_record(record))
            live[seq] = h
            total += h
        self._memo = live
        value = ((total & _MASK) * _PRIME + len(live)) & _MASK
        for pid, process in self._procs:
            if process.crashed:
                value = (value * _PRIME + pid + 0x9E3779B9) & _MASK
        value = (value * _PRIME + self._delivery_fold()) & _MASK
        return format(value, "032x")
