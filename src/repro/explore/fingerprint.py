"""State fingerprints for the explorer: canonical descriptions and the
incremental rolling-hash tracker.

Fingerprints partition decision prefixes into equivalence classes the
search strategies prune on: two prefixes with equal fingerprints left
the simulation in (apparently) the same scheduler-visible state, so
exploring both is redundant — symmetric interleavings of independent
deliveries being the common case.  What matters for search results is
therefore the *partition*, not the literal hash strings.

Two implementations of the same partition live here:

* :func:`fingerprint_state` — the original full recompute: canonically
  describe every live pending event, sort, and hash the whole blob.
  Simple, stateless, and O(pending · description cost) **per decision
  step**, which profiling shows dominating the explorer's schedule
  throughput (~80% of a pruned search's runtime before PR 7).

* :class:`FingerprintTracker` — an order-independent rolling hash over
  the same canonical per-record descriptions, maintained incrementally
  from event-lifecycle notifications (push / fire / cancel / defer /
  release; see ``EventQueue.observer`` and the controlled loop's
  notification sites in :mod:`repro.sim.engine`).  Each record is
  described and hashed **once per lifetime state** instead of once per
  step it stays pending; the per-step read is O(new events + blocked +
  processes).  The pending multiset folds with modular *sum* (not XOR:
  XOR would cancel duplicate pairs of identical descriptions, and
  duplicated frames are exactly what retransmission schedules create)
  plus an explicit count; the order-*sensitive* components (blocked
  events in deferral order, adelivery sequences) fold with a
  multiply-accumulate.  Hashes come from SHA-256 of the description's
  ``repr`` — never Python's randomized ``hash()`` — so values are
  stable across worker processes, a requirement for the sharded
  parallel search.

Both read events through the *record* interface (``time``/``seq``/
``fn``/``args``/``state``), never through queue storage directly, so
they are storage-agnostic: the heap and calendar queues hand over
their records, and the PR 8 columnar queue hands over the handle view
it materializes over a slot at push time (the observer seam is exactly
the point where a columnar event needs an identity the tracker can key
dictionaries on).  The three-way observer-sequence test in
``tests/sim/test_equeue.py`` pins the notification streams identical
across storages.

The two produce *different strings* but the **same partition** of
states: both are injective-in-practice images of the same canonical
tuple (pending multiset, blocked sequence, crash set, adelivery
sequences).  ``FingerprintTracker(check=True)`` — or the
``REPRO_FP_CHECK=1`` environment variable — verifies the maintained
state against a from-scratch recompute at every read and raises on any
divergence; ``tests/explore/test_fast_path.py`` runs full searches
under the flag.
"""

from __future__ import annotations

import hashlib
import os
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.identifiers import MessageId
from repro.net.frame import Frame
from repro.sim.engine import Engine, _EventRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stack.builder import System

__all__ = [
    "FingerprintTracker",
    "describe_record",
    "fingerprint_state",
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
    fn, args = record.fn, record.args
    # Unwrap SimProcess._guarded(fn, args) so timer descriptions name
    # the protocol callback, not the guard.
    if _describe_callable(fn).startswith("SimProcess._guarded") and len(args) == 2:
        fn, args = args[0], args[1]
    return (
        "blocked" if blocked else repr(record.time),
        _describe_callable(fn),
        _describe_value(tuple(args)),
        _describe_value(getattr(record, "info", None)),
    )


def fingerprint_state(
    system: "System", ready: Iterable[_EventRecord] = ()
) -> str:
    """Hash of the simulation's scheduler-visible state (full recompute).

    Covers the live pending-event set (heap, the current ready set —
    which the controlled loop holds off-heap while it consults the
    scheduler — and deferred events, canonically described and
    order-insensitively sorted), the crash record, and every process's
    adelivery sequence.  Protocol layers hold internal state (round
    numbers, ack counters, received stores) the fingerprint cannot
    see, so matching fingerprints do **not** guarantee identical
    futures: pruning on them is a *symmetry heuristic* aimed at
    reorderings of independent events — which do converge to genuinely
    identical global states — and may in principle also collapse
    prefixes that differ only in hidden layer state, under-exploring
    the space.  An ``exhausted`` search result is therefore
    "exhausted modulo fingerprint equivalence", not a proof; disable
    ``ExploreSpec.prune`` for the strictly-complete (and much slower)
    enumeration.
    """
    engine = system.engine
    pending = sorted(
        [
            repr(describe_record(record))
            for _, _, record in engine.pending_entries()
            if not record.cancelled
        ]
        + [
            repr(describe_record(record))
            for record in ready
            if not record.cancelled
        ]
    )
    blocked = [
        repr(describe_record(record, blocked=True))
        for record in engine._blocked
        if not record.cancelled
    ]
    crashed = sorted(
        pid for pid, p in system.processes.items() if p.crashed
    )
    delivered = [
        (pid, tuple(map(repr, system.trace.adelivery_sequence(pid))))
        for pid in sorted(system.processes)
    ]
    blob = repr((pending, blocked, crashed, delivered))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _hash_description(description: Any) -> int:
    """Stable 128-bit hash of a canonical description."""
    return int.from_bytes(
        hashlib.sha256(repr(description).encode()).digest()[:16], "big"
    )


def _check_enabled() -> bool:
    return os.environ.get("REPRO_FP_CHECK", "") not in ("", "0")


class FingerprintTracker:
    """Incrementally maintained state fingerprint of one controlled run.

    Attach with :meth:`attach` after the system is built and sends are
    scheduled (``ExploreScheduler.begin_run`` does); the tracker scans
    the already-pending set once, then stays current purely from the
    engine's lifecycle notifications.  :meth:`fingerprint` is the
    per-decision-step read.

    Laziness: ``annotate()`` runs *after* ``push`` returns, so a
    record's description cannot be hashed at push time — pushed records
    park in a fresh-list and are described at the next read, by which
    point their annotations (and any immediate cancellation) are
    settled.  Every decision step performs a read, so the fresh-list
    stays a handful of entries and the remove-on-cancel scan of it is
    O(few).

    ``check=True`` (or ``REPRO_FP_CHECK=1``) recomputes the whole state
    from scratch at every read and raises ``AssertionError`` on any
    divergence from the maintained values — the debug harness that
    validates the incremental bookkeeping against the ground truth.
    """

    __slots__ = (
        "_system",
        "_check",
        "_sum",
        "_count",
        "_hashes",
        "_fresh",
        "_blocked",
        "_blocked_hashes",
        "_procs",
        "_adeliv",
        "_consumed",
        "_folds",
    )

    def __init__(self, system: "System", check: bool = False) -> None:
        self._system = system
        self._check = check or _check_enabled()
        self._sum = 0
        self._count = 0
        #: live pending record -> its 128-bit description hash.  Keyed
        #: by the record object itself (identity): in-hand ready
        #: records the controlled loop holds off-heap intentionally
        #: stay tracked — they are still pending.
        self._hashes: dict[_EventRecord, int] = {}
        #: pushed since the last read; described lazily (see above).
        self._fresh: list[_EventRecord] = []
        #: mirror of the engine's deferred-and-blocked list, in order.
        self._blocked: list[_EventRecord] = []
        self._blocked_hashes: dict[_EventRecord, int] = {}
        # Per-process state, hoisted once: the process set is fixed for
        # the lifetime of a run (crashed processes stay registered).
        processes = system.processes
        pids = sorted(processes)
        self._procs = [(pid, processes[pid]) for pid in pids]
        # Adelivery sequences are append-only; track the consumed
        # prefix length and its running ordered fold per process.
        # (A trace observer without the standard storage falls back to
        # a full re-fold per read — correct, just not incremental.)
        sequences = getattr(system.trace, "_adeliveries", None)
        self._adeliv = (
            None
            if sequences is None
            else [(pid, sequences[pid]) for pid in pids]
        )
        self._consumed = [0] * len(pids)
        self._folds = [0] * len(pids)

    # -- attachment ----------------------------------------------------

    def attach(self, engine: Engine) -> None:
        """Install as the queue observer; adopt the already-pending set."""
        engine.equeue.observer = self
        for _, _, record in engine.pending_entries():
            if record.state == 0:
                self._fresh.append(record)
        for record in engine._blocked:
            if record.state == 0:
                self.on_block(record)

    def detach(self, engine: Engine) -> None:
        engine.equeue.observer = None

    # -- lifecycle notifications ---------------------------------------

    def on_push(self, record: _EventRecord) -> None:
        self._fresh.append(record)

    def on_fire(self, record: _EventRecord) -> None:
        self._forget(record)

    def on_cancel(self, record: _EventRecord) -> None:
        self._forget(record)

    def on_defer(self, record: _EventRecord) -> None:
        # Bounded defer: the record's time changed, so its pending
        # description is stale — re-describe at the next read.
        self._forget(record)
        self._fresh.append(record)

    def on_block(self, record: _EventRecord) -> None:
        # Unbounded defer: moves from the pending multiset to the
        # ordered blocked sequence; blocked descriptions are
        # time-independent ("blocked" replaces the due time).
        self._forget(record)
        self._blocked.append(record)
        self._blocked_hashes[record] = _hash_description(
            describe_record(record, blocked=True)
        )

    def on_release(self, record: _EventRecord) -> None:
        if self._blocked_hashes.pop(record, None) is not None:
            self._blocked.remove(record)
        self._fresh.append(record)

    def _forget(self, record: _EventRecord) -> None:
        h = self._hashes.pop(record, None)
        if h is not None:
            self._sum = (self._sum - h) & _MASK
            self._count -= 1
            return
        if self._blocked_hashes.pop(record, None) is not None:
            self._blocked.remove(record)
            return
        try:
            self._fresh.remove(record)
        except ValueError:
            pass

    # -- the read ------------------------------------------------------

    def _reconcile(self) -> None:
        fresh = self._fresh
        if not fresh:
            return
        hashes = self._hashes
        total = self._sum
        count = self._count
        for record in fresh:
            if record.state == 0 and record not in hashes:
                h = _hash_description(describe_record(record))
                hashes[record] = h
                total += h
                count += 1
        self._sum = total & _MASK
        self._count = count
        fresh.clear()

    def _delivery_fold(self) -> int:
        if self._adeliv is None:
            total = 0
            for pid, _ in self._procs:
                fold = 0
                for mid in self._system.trace.adelivery_sequence(pid):
                    fold = (fold * _PRIME + _hash_description(mid)) & _MASK
                total = (total * _PRIME + fold + pid) & _MASK
            return total
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
        for record in self._blocked:
            if record.state == 0:
                value = (
                    value * _PRIME + self._blocked_hashes[record]
                ) & _MASK
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
        tracker_blocked = [r for r in self._blocked if r.state == 0]
        if engine_blocked != tracker_blocked:
            raise AssertionError(
                "fingerprint tracker blocked-mirror drift "
                f"({len(tracker_blocked)} tracked vs "
                f"{len(engine_blocked)} engine)"
            )
        for record in tracker_blocked:
            h = _hash_description(describe_record(record, blocked=True))
            if self._blocked_hashes[record] != h:
                raise AssertionError(
                    f"fingerprint tracker stale blocked description "
                    f"for {record!r}"
                )
