"""State fingerprints for the explorer: canonical descriptions and the
incremental rolling-hash tracker.

Fingerprints partition decision prefixes into equivalence classes the
search strategies prune on: two prefixes with equal fingerprints left
the simulation in (apparently) the same scheduler-visible state, so
exploring both is redundant — symmetric interleavings of independent
deliveries being the common case.  What matters for search results is
therefore the *partition*, not the literal hash strings.

The partition is implemented by :class:`FingerprintTracker` — an
order-independent rolling hash over canonical per-record descriptions,
maintained from event-lifecycle notifications (push / fire / cancel /
defer / release; see ``EventQueue.observer`` and the controlled loop's
notification sites in :mod:`repro.sim.engine`).  A record is described
and hashed **at most once per lifetime state, and only if a read finds
it still pending**: notifications merely file the record under a dict
key, so everything pushed and fired between two reads — the whole
replayed prefix of a windowed search run (see
:mod:`repro.explore.scheduler`) — is dropped in O(1) without ever being
described.  The pending multiset folds with modular *sum* (not XOR: XOR
would cancel duplicate pairs of identical descriptions, and duplicated
frames are exactly what retransmission schedules create) plus an
explicit count; the order-*sensitive* components (blocked events in
deferral order, adelivery sequences) fold with a multiply-accumulate.
Hashes come from SHA-256 of the description's ``repr`` — never Python's
randomized ``hash()`` — so values are stable across worker processes, a
requirement for the sharded parallel search.

Events are read through the *record* interface (``time``/``seq``/
``fn``/``args``/``state``) of :class:`~repro.sim.equeue.EventHandle`
— in a controlled run every pending heap entry is one, and handles hash
by identity, so the tracker keys its dictionaries on them.  The
observer-sequence test in ``tests/sim/test_equeue.py`` pins the
notification stream against a reference model of the store.

A fingerprint covers the live pending-event set (heap, the in-hand
ready set, deferred events), the crash record and every process's
adelivery sequence.  Protocol layers hold internal state (round
numbers, ack counters, received stores) it cannot see, so matching
fingerprints do **not** guarantee identical futures: pruning on them is
a *symmetry heuristic* aimed at reorderings of independent events —
which do converge to genuinely identical global states — and may in
principle also collapse prefixes that differ only in hidden layer
state.  An ``exhausted`` search result is therefore "exhausted modulo
fingerprint equivalence", not a proof; disable ``ExploreSpec.prune``
for the strictly-complete (and much slower) enumeration.

``FingerprintTracker(check=True)`` (``ExploreSpec.fingerprint_check``)
verifies the maintained state against a from-scratch recompute at
every read and raises on any divergence;
``tests/explore/test_fast_path.py`` runs full searches under the flag.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.identifiers import MessageId
from repro.net.frame import Frame
from repro.sim.engine import Engine, _EventRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stack.builder import System

__all__ = [
    "FingerprintTracker",
    "describe_record",
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


def describe_record(record: _EventRecord, blocked: bool = False) -> tuple:
    """Canonical description of one pending event (for fingerprints)."""
    args = record.args
    name = _describe_callable(record.fn)
    # Unwrap SimProcess._guarded(fn, args) so timer descriptions name
    # the protocol callback, not the guard.
    if name.startswith("SimProcess._guarded") and len(args) == 2:
        name, args = _describe_callable(args[0]), args[1]
    return (
        "blocked" if blocked else repr(record.time),
        name,
        _describe_value(tuple(args)),
        _describe_value(getattr(record, "info", None)),
    )


def _hash_description(description: Any) -> int:
    """Stable 128-bit hash of a canonical description."""
    return int.from_bytes(
        hashlib.sha256(repr(description).encode()).digest()[:16], "big"
    )


class FingerprintTracker:
    """Incrementally maintained state fingerprint of one controlled run.

    Attach with :meth:`attach` after the system is built and sends are
    scheduled (``ExploreScheduler.begin_run`` does); the tracker scans
    the already-pending set once, then stays current purely from the
    engine's lifecycle notifications.  :meth:`fingerprint` is the
    per-decision-step read.

    Descriptions are lazy for a second reason besides cost:
    ``annotate()`` runs *after* ``push`` returns, so a record cannot be
    described at push time — only at the next read, by which point its
    annotation is settled.

    ``check=True`` recomputes the whole state from scratch at every
    read and raises ``AssertionError`` on any divergence from the
    maintained values — the debug harness that validates the
    incremental bookkeeping against the ground truth.
    """

    __slots__ = (
        "_system",
        "_check",
        "_sum",
        "_count",
        "_hashes",
        "_fresh",
        "_blocked",
        "_procs",
        "_adeliv",
        "_consumed",
        "_folds",
    )

    def __init__(self, system: "System", check: bool = False) -> None:
        self._system = system
        self._check = check
        self._sum = 0
        self._count = 0
        #: live pending record -> its 128-bit description hash.  Keyed
        #: by the record object itself (identity): in-hand ready
        #: records the controlled loop holds off-heap intentionally
        #: stay tracked — they are still pending.
        self._hashes: dict[_EventRecord, int] = {}
        #: pushed since the last read; described lazily (see above).
        self._fresh: dict[_EventRecord, None] = {}
        #: mirror of the engine's deferred-and-blocked list, in order:
        #: record -> description hash (``None`` until first read).
        self._blocked: dict[_EventRecord, int | None] = {}
        # Per-process state, hoisted once: the process set is fixed for
        # the lifetime of a run (crashed processes stay registered).
        processes = system.processes
        pids = sorted(processes)
        self._procs = [(pid, processes[pid]) for pid in pids]
        # Adelivery sequences are append-only; track the consumed
        # prefix length and its running ordered fold per process.
        sequences = system.trace._adeliveries
        self._adeliv = [(pid, sequences[pid]) for pid in pids]
        self._consumed = [0] * len(pids)
        self._folds = [0] * len(pids)

    # -- attachment ----------------------------------------------------

    def attach(self, engine: Engine) -> None:
        """Install as the queue observer; adopt the already-pending set."""
        engine.equeue.observer = self
        for _, _, record in engine.pending_entries():
            if record.state == 0:
                self._fresh[record] = None
        for record in engine._blocked:
            if record.state == 0:
                self._blocked[record] = None

    def detach(self, engine: Engine) -> None:
        engine.equeue.observer = None

    # -- lifecycle notifications ---------------------------------------

    def on_push(self, record: _EventRecord) -> None:
        self._fresh[record] = None

    def on_defer(self, record: _EventRecord) -> None:
        # Bounded defer: the record's time changed, so its pending
        # description is stale — re-describe at the next read.
        self._forget(record)
        self._fresh[record] = None

    def on_block(self, record: _EventRecord) -> None:
        # Unbounded defer: moves from the pending multiset to the
        # ordered blocked sequence; blocked descriptions are
        # time-independent ("blocked" replaces the due time).
        self._forget(record)
        self._blocked[record] = None

    def on_release(self, record: _EventRecord) -> None:
        self._blocked.pop(record, None)
        self._fresh[record] = None

    def _forget(self, record: _EventRecord) -> None:
        h = self._hashes.pop(record, None)
        if h is not None:
            self._sum = (self._sum - h) & _MASK
            self._count -= 1
        else:  # not described yet (or blocked): nothing to subtract
            self._fresh.pop(record, None)
            self._blocked.pop(record, None)

    # A fired or cancelled record simply leaves whichever store holds it.
    on_fire = on_cancel = _forget

    # -- the read ------------------------------------------------------

    def _reconcile(self) -> None:
        fresh = self._fresh
        if not fresh:
            return
        hashes = self._hashes
        total = self._sum
        count = self._count
        for record in fresh:
            if record.state == 0:
                h = _hash_description(describe_record(record))
                hashes[record] = h
                total += h
                count += 1
        self._sum = total & _MASK
        self._count = count
        fresh.clear()

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
        """The current state fingerprint (``ready`` feeds only the
        ``check`` recompute — the maintained state already covers
        in-hand ready records whether on- or off-heap)."""
        self._reconcile()
        value = (self._sum * _PRIME + self._count) & _MASK
        blocked = self._blocked
        for record, h in blocked.items():
            if h is None:
                h = blocked[record] = _hash_description(
                    describe_record(record, blocked=True)
                )
            value = (value * _PRIME + h) & _MASK
        for pid, process in self._procs:
            if process.crashed:
                value = (value * _PRIME + pid + 0x9E3779B9) & _MASK
        value = (value * _PRIME + self._delivery_fold()) & _MASK
        if self._check:
            self._verify(ready)
        return format(value, "032x")

    # -- debug validation ----------------------------------------------

    def _verify(self, ready: Iterable[_EventRecord]) -> None:
        """Assert the maintained state equals a from-scratch recompute."""
        engine = self._system.engine
        live: dict[int, _EventRecord] = {}
        for _, _, record in engine.pending_entries():
            if record.state == 0:
                live[id(record)] = record
        for record in ready:
            # In-hand ready records sit off-heap during decide(); the
            # union (deduplicated — during wants() they are still
            # on-heap) is the ground-truth pending multiset.
            if record.state == 0:
                live.setdefault(id(record), record)
        tracked = {id(r) for r in self._hashes}
        if tracked != set(live):
            raise AssertionError(
                f"fingerprint tracker pending-set drift: tracking "
                f"{len(tracked)} records, engine holds {len(live)}"
            )
        expected_sum = 0
        for record in live.values():
            h = _hash_description(describe_record(record))
            if self._hashes[record] != h:
                raise AssertionError(
                    f"fingerprint tracker stale description for "
                    f"{record!r}"
                )
            expected_sum = (expected_sum + h) & _MASK
        if expected_sum != self._sum or len(live) != self._count:
            raise AssertionError(
                "fingerprint tracker sum/count drift "
                f"(sum {self._sum:#x} vs {expected_sum:#x}, "
                f"count {self._count} vs {len(live)})"
            )
        engine_blocked = [r for r in engine._blocked if r.state == 0]
        tracker_blocked = list(self._blocked)
        if engine_blocked != tracker_blocked:
            raise AssertionError(
                "fingerprint tracker blocked-mirror drift "
                f"({len(tracker_blocked)} tracked vs "
                f"{len(engine_blocked)} engine)"
            )
        for record in tracker_blocked:
            h = _hash_description(describe_record(record, blocked=True))
            if self._blocked[record] != h:
                raise AssertionError(
                    f"fingerprint tracker stale blocked description "
                    f"for {record!r}"
                )
