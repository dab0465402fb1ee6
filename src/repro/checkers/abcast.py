"""Checkers for atomic broadcast.

Properties (Section 2.1 of the paper):

* **Validity** — if a correct process abroadcasts ``m``, it eventually
  adelivers ``m``.  (This is the property the faulty stack of
  Section 2.2 violates after a crash.)
* **Uniform integrity** — every process adelivers ``m`` at most once,
  and only if ``m`` was abroadcast.
* **Uniform agreement** — if *any* process adelivers ``m``, all correct
  processes eventually adeliver ``m``.
* **Uniform total order** — if some process adelivers ``m`` before
  ``m'``, every process adelivers ``m'`` only after ``m``: pairwise
  (Défago, Schiper and Urbán, ACM CSUR 2004), any two sequences are a
  common prefix followed by disjoint suffixes.  So a crashed p1 with
  ``[a, b]`` and p2 with ``[a, c]`` comply, and no single agreed
  sequence is asked for.

The checker also validates Hypothesis A end to end: every message whose
identifier was decided and that was rdelivered by some correct process
is eventually rdelivered by all correct processes (this is RB Agreement,
but stated on the ids consensus actually ordered).

All of them are one streaming fold, a monitor in the manner of Havelund
and Roşu (STTT 2004).  ``run_experiment`` subscribes
:meth:`AbcastChecker.on_event` to the run's trace like a probe, in
either trace mode, and folds what it takes in batches, one row per
event of a kind it reads; ``AbcastChecker(trace, config)`` folds a
retained trace's rows (:meth:`~repro.sim.trace.Trace.rows`, no event
objects) at its first check.  Verdicts surface only from a ``check_*``
method.
State is what is in flight: a message is forgotten once every live
process has adelivered it (crash events shrink the live set) and stays
an :class:`~repro.core.identifiers.IdWatermark` member, as do the ids
abroadcast.  A message in flight keeps its holders' pid mask and
delivery positions; a process pair, its common-prefix length and where
it diverged.  A crashed process must record nothing after its crash.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from repro.core.config import SystemConfig
from repro.core.events import (
    ABroadcastEvent,
    ADeliverEvent,
    CrashEvent,
    DecideEvent,
    ProtocolEvent,
    RDeliverEvent,
)
from repro.core.exceptions import ProtocolViolationError
from repro.core.identifiers import IdWatermark, MessageId, ProcessId
from repro.sim.trace import Trace

#: Events a subscribed checker takes (and holds) before it folds them in
#: one pass: interleaved with the simulation event by event, the fold ran
#: at about half the speed it has over a batch.
_BATCH = 512
#: The event kinds the fold reads.
_FOLDED = (ABroadcastEvent, ADeliverEvent, RDeliverEvent, DecideEvent, CrashEvent)


class AbcastChecker:
    """The atomic broadcast properties, folded over the event stream.

    Args:
        trace: A retained trace to replay through the fold (at the
            first check), or ``None`` for a checker fed by subscribing
            :meth:`on_event` to a run.
        config: Group configuration.
    """

    def __init__(self, trace: Trace | None, config: SystemConfig) -> None:
        self.config = config
        n = config.n
        #: Pid mask of the processes not crashed so far.
        self._live = (1 << (n + 1)) - 2
        #: Ids abroadcast; ids adelivered (rdelivered) by every process
        #: live when the last of them did.
        self._abroadcast, self._adelivered, self._rdelivered = (
            IdWatermark(n), IdWatermark(n), IdWatermark(n)
        )
        #: (mid, abroadcaster) until the abroadcaster adelivers mid, in
        #: abroadcast order (a dict as an ordered set).
        self._owed: dict[tuple[MessageId, ProcessId], None] = {}
        #: Adelivered (rdelivered or decided) ids in flight -> pid mask
        #: of their adeliverers (rdeliverers, and bit 0 once decided).
        self._holders: dict[MessageId, int] = {}
        self._rheld: dict[MessageId, int] = {}
        #: Per process: distinct adeliveries so far; mid -> position and
        #: position -> mid of those in flight.
        self._length = [0] * (n + 1)
        self._position: list[dict] = [{} for _ in range(n + 1)]
        self._at: list[dict] = [{} for _ in range(n + 1)]
        #: (p, q), p < q -> [common prefix length, {pid: element} where
        #: the sequences diverge, {pid: element} at the first violation];
        #: and per process p, (q, at, pair) per peer q.
        pids = range(1, n + 1)
        self._pairs = {(p, q): [0, None, None] for p in pids for q in pids if p < q}
        self._peers = [()] + [
            [(q, self._at[q], self._pairs[(p, q) if p < q else (q, p)])
             for q in pids if q != p]
            for p in pids
        ]
        #: Integrity: (p, (position, 0 = repeat / 1 = unheard of), mid)
        #: per repeated adelivery and per id not abroadcast when
        #: adelivered (a later abroadcast still counts).
        self._suspect: list[tuple[ProcessId, tuple, MessageId]] = []
        #: ``(time, process, value)`` of the earliest decide event of
        #: each instance first decided at ``_tie_time`` (a lower pid may
        #: still tie it), and the instances whose first decision is
        #: final, as ids ``(0, k)``.
        self._ties: dict[int, tuple] = {}
        self._tie_time = -1.0
        self._settled = IdWatermark(0)
        #: Rows of the events taken by :meth:`on_event` and not folded
        #: yet: the first ``_taken`` slots.
        self._batch: list = [None] * _BATCH
        self._taken = 0
        #: A retained trace, folded at the first check.
        self._replay = trace

    def on_event(self, event: ProtocolEvent) -> None:
        """Take one event as a row (see :meth:`_fold`); the trace calls
        this per recorded event."""
        cls = type(event)
        if cls is ADeliverEvent or cls is RDeliverEvent or cls is ABroadcastEvent:
            row = (cls, event.time, event.process, event.message, 0)
        elif cls is DecideEvent:
            row = (cls, event.time, event.process, event.value, event.instance)
        elif cls is CrashEvent:
            row = (cls, event.time, event.process, None, 0)
        else:
            return  # a kind the fold does not read
        self._batch[self._taken] = row
        self._taken += 1
        if self._taken == _BATCH:
            self._taken = 0
            self._fold(self._batch)

    def _flush(self) -> None:
        """Fold what is not folded yet: the replayed trace's rows, then
        the events taken since the last full batch."""
        if self._replay is not None:
            self._fold(self._replay.rows(*_FOLDED))
            self._replay = None
        if self._taken:
            self._fold(self._batch[:self._taken])
            self._taken = 0

    def _fold(self, rows) -> None:
        """Fold ``rows`` in, in order: the one implementation of the
        properties' bookkeeping.  A row is :meth:`~repro.sim.trace.Trace.rows`'s
        ``(class, time, process, message or value, instance)``, so a
        replay builds no event object."""
        live = self._live
        holders, rheld, owed, ties = (
            self._holders, self._rheld, self._owed, self._ties
        )
        heard, adelivered, rdelivered, settled = (
            self._abroadcast, self._adelivered, self._rdelivered, self._settled
        )
        length, positions, at_of, peers = (
            self._length, self._position, self._at, self._peers
        )
        for cls, time, p, ref, k in rows:
            if cls is ADeliverEvent:
                mid = ref.mid
                origin, seq = mid
                held = holders[mid] if mid in holders else 0
                at = length[p]
                if (
                    held >> p & 1
                    or seq <= adelivered.through[origin]
                    or mid in adelivered.above
                ):
                    self._suspect.append((p, (at, 0), mid))
                    continue
                length[p] = at + 1
                if seq > heard.through[origin] and mid not in heard.above:
                    self._suspect.append((p, (at, 1), mid))
                if (mid, p) in owed:
                    del owed[mid, p]
                # Before a pair diverges, one of its sequences is the
                # common prefix and the other may run ahead of it.
                for q, sequence, pair in peers[p]:
                    prefix = pair[0]
                    if held >> q & 1:
                        if (
                            at == prefix and pair[1] is None
                            and sequence[prefix] == mid
                        ):
                            pair[0] = prefix + 1
                        elif pair[2] is None:
                            pair[2] = pair[1] or {p: mid, q: sequence[prefix]}
                    elif at == prefix and pair[1] is None and prefix in sequence:
                        pair[1] = {p: mid, q: sequence[prefix]}
                held |= 1 << p
                if held & live != live:
                    holders[mid] = held
                    positions[p][mid] = at
                    at_of[p][at] = mid
                    continue
                if mid in holders:
                    del holders[mid]
                    for q, sequence, _ in peers[p]:
                        if held >> q & 1:
                            position = positions[q]
                            del sequence[position[mid]]
                            del position[mid]
                adelivered.add(mid)
            elif cls is RDeliverEvent:
                mid = ref.mid
                if mid[1] > rdelivered.through[mid[0]] and mid not in rdelivered.above:
                    mask = (rheld[mid] if mid in rheld else 0) | 1 << p
                    if mask & live != live:
                        rheld[mid] = mask
                    else:
                        if mid in rheld:
                            del rheld[mid]
                        rdelivered.add(mid)
            elif cls is ABroadcastEvent:
                heard.add(ref.mid)
                owed[ref.mid, p] = None
            elif cls is DecideEvent:
                if k in ties:
                    first = ties[k]
                    if time == first[0] and p < first[1]:
                        ties[k] = (time, p, ref)
                elif k > settled.through[0] and (0, k) not in settled.above:
                    if time > self._tie_time:
                        self._settle()
                        self._tie_time = time
                    ties[k] = (time, p, ref)
            elif cls is CrashEvent:
                live &= ~(1 << p)
                self._live = live

    def _settle(self) -> None:
        """Mark the ids of the pending first decisions decided."""
        rheld, done = self._rheld, self._rdelivered
        for k, (_, _, value) in self._ties.items():
            self._settled.add((0, k))
            for mid in value:
                if mid in rheld:
                    rheld[mid] |= 1
                elif mid[1] > done.through[mid[0]] and mid not in done.above:
                    rheld[mid] = 1
        self._ties.clear()

    def _first_correct_missing(
        self, prop: str, held: dict, among: int, what: str
    ) -> None:
        """Raise ``prop`` for the lowest correct process missing an id of
        ``held`` (id -> pid mask of its holders) held by one of ``among``."""
        for p in range(1, self.config.n + 1):
            if not self._live >> p & 1:
                continue
            missing = [
                mid for mid, mask in held.items()
                if mask & among and not mask >> p & 1
            ]
            if missing:
                raise ProtocolViolationError(prop, what.format(
                    p=p, count=len(missing), sample=sorted(missing)[:3]
                ))

    def check_validity(self) -> None:
        """A correct broadcaster adelivers its own message."""
        self._flush()
        for mid, p in self._owed:
            delivered = mid in self._position[p] or mid in self._adelivered
            if self._live >> p & 1 and not delivered:
                raise ProtocolViolationError(
                    "Abcast Validity",
                    f"correct p{p} abroadcast {mid} but never adelivered it",
                )

    def check_uniform_integrity(self) -> None:
        """At most one adelivery per message per process; no inventions.

        Reports the lowest offending process at the earliest of its
        adeliveries that breaks the property.
        """
        self._flush()
        repeats = Counter((p, mid) for p, (_, unheard), mid in self._suspect
                          if not unheard)
        found = [
            (p, key, mid) for p, key, mid in self._suspect
            if not key[1] or mid not in self._abroadcast
        ]
        if found:
            p, (_, unheard), mid = min(found, key=itemgetter(0, 1))
            raise ProtocolViolationError(
                "Abcast Uniform integrity",
                f"p{p} adelivered {mid} which was never abroadcast" if unheard
                else f"p{p} adelivered {mid} {repeats[p, mid] + 1} times",
            )

    def check_uniform_agreement(self) -> None:
        """If anyone adelivered ``m``, every correct process did."""
        self._flush()
        self._first_correct_missing(
            "Abcast Uniform agreement", self._holders, -1,
            "correct p{p} missed {count} adelivered messages, e.g. {sample}",
        )

    def check_uniform_total_order(self) -> None:
        """If some process adelivers ``m`` before ``m'``, every process
        adelivers ``m'`` only after ``m`` — at any process pair.

        Reports the lowest violating pair and the two elements at the
        first index where its sequences differ within as many entries
        as they have messages in common.
        """
        self._flush()
        for (p, q), (_, _, violation) in self._pairs.items():
            if violation is not None:
                raise ProtocolViolationError(
                    "Abcast Uniform total order",
                    f"p{p} and p{q} deliver in contradictory orders "
                    f"around {(violation[p], violation[q])}",
                )

    def check_hypothesis_a(self) -> None:
        """Decided + rdelivered-by-one-correct implies rdelivered-by-all-correct."""
        self._flush()
        held = dict(self._rheld)
        for _, _, value in self._ties.values():
            for mid in value & held.keys():
                held[mid] |= 1
        self._first_correct_missing(
            "Hypothesis A",
            {mid: mask for mid, mask in held.items() if mask & 1}, self._live,
            "correct p{p} never rdelivered decided messages {sample} "
            "held by other correct processes",
        )

    def check_all(self, expect_quiescent: bool = True) -> None:
        """Run every check (liveness ones only on quiescent traces)."""
        self.check_uniform_integrity()
        self.check_uniform_total_order()
        if expect_quiescent:
            self.check_validity()
            self.check_uniform_agreement()
            self.check_hypothesis_a()


def check_abcast(
    trace: Trace, config: SystemConfig, expect_quiescent: bool = True
) -> None:
    """Convenience wrapper: run all atomic broadcast checks on ``trace``."""
    AbcastChecker(trace, config).check_all(expect_quiescent=expect_quiescent)
