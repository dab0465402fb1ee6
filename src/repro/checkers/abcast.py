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
  ``m'``, every process adelivers ``m'`` only after ``m``.

The checker also validates Hypothesis A end to end: every message whose
identifier was decided and that was rdelivered by some correct process
is eventually rdelivered by all correct processes (this is RB Agreement,
but stated on the ids consensus actually ordered).
"""

from __future__ import annotations

from collections import Counter

from repro.core.config import SystemConfig
from repro.core.exceptions import ProtocolViolationError
from repro.core.identifiers import MessageId, ProcessId
from repro.sim.trace import Trace


class AbcastChecker:
    """Evaluates the atomic broadcast properties on a quiescent trace."""

    def __init__(self, trace: Trace, config: SystemConfig) -> None:
        self.trace = trace
        self.config = config
        self.correct = trace.correct_processes(config.processes)
        self._abroadcast = {e.message.mid: e for e in trace.abroadcasts()}
        self._sequences: dict[ProcessId, list[MessageId]] = {
            p: trace.adelivery_sequence(p) for p in config.processes
        }

    def check_validity(self) -> None:
        """A correct broadcaster adelivers its own message."""
        delivered = {p: set(self._sequences[p]) for p in self.correct}
        for mid, event in self._abroadcast.items():
            if event.process not in self.correct:
                continue
            if mid not in delivered[event.process]:
                raise ProtocolViolationError(
                    "Abcast Validity",
                    f"correct p{event.process} abroadcast {mid} "
                    f"but never adelivered it",
                )

    def check_uniform_integrity(self) -> None:
        """At most one adelivery per message per process; no inventions."""
        for process, sequence in self._sequences.items():
            counts = Counter(sequence)
            for mid, count in counts.items():
                if count > 1:
                    raise ProtocolViolationError(
                        "Abcast Uniform integrity",
                        f"p{process} adelivered {mid} {count} times",
                    )
                if mid not in self._abroadcast:
                    raise ProtocolViolationError(
                        "Abcast Uniform integrity",
                        f"p{process} adelivered {mid} which was never abroadcast",
                    )

    def check_uniform_agreement(self) -> None:
        """If anyone adelivered ``m``, every correct process did."""
        delivered_by_anyone: set[MessageId] = set()
        for sequence in self._sequences.values():
            delivered_by_anyone.update(sequence)
        for process in self.correct:
            missing = delivered_by_anyone - set(self._sequences[process])
            if missing:
                sample = sorted(missing)[:3]
                raise ProtocolViolationError(
                    "Abcast Uniform agreement",
                    f"correct p{process} missed {len(missing)} adelivered "
                    f"messages, e.g. {sample}",
                )

    def check_uniform_total_order(self) -> None:
        """If some process adelivers ``m`` before ``m'``, every process
        adelivers ``m'`` only after ``m`` — at any process pair.

        Implementation: for each pair of processes, with ``k`` the number
        of messages both adelivered, the first ``k`` entries of both
        sequences must be equal.  That is the property itself, not just
        agreement on the relative order of the common messages: a
        process that adelivered ``m'`` without ``m`` before it, where
        another adelivered ``m`` then ``m'``, has broken it even if it
        crashed before ``m`` could reach it.  (O(L) per pair.)
        """
        delivered = {p: set(seq) for p, seq in self._sequences.items()}
        processes = [p for p, seq in self._sequences.items() if seq]
        for i, p in enumerate(processes):
            for q in processes[i + 1 :]:
                k = len(delivered[p] & delivered[q])
                by_p = self._sequences[p][:k]
                by_q = self._sequences[q][:k]
                if by_p != by_q:
                    divergence = next(
                        (a, b) for a, b in zip(by_p, by_q) if a != b
                    )
                    raise ProtocolViolationError(
                        "Abcast Uniform total order",
                        f"p{p} and p{q} deliver in contradictory orders "
                        f"around {divergence}",
                    )

    def check_correct_prefix_consistency(self) -> None:
        """Correct processes' sequences are identical (quiescent trace).

        Strictly this is Agreement + Total order combined, but checking
        the sequences wholesale gives much better failure messages.
        """
        sequences = [self._sequences[p] for p in sorted(self.correct)]
        if not sequences:
            return
        reference = sequences[0]
        for process, sequence in zip(sorted(self.correct), sequences):
            if sequence != reference:
                raise ProtocolViolationError(
                    "Abcast order consistency",
                    f"correct p{process} delivered a different sequence "
                    f"than correct p{sorted(self.correct)[0]}",
                )

    def check_hypothesis_a(self) -> None:
        """Decided + rdelivered-by-one-correct implies rdelivered-by-all-correct."""
        decided_ids: set[MessageId] = set()
        for first in self.trace.first_decisions().values():
            decided_ids.update(first.value)
        rdelivered: dict[ProcessId, set[MessageId]] = {
            p: {e.message.mid for e in self.trace.rdeliveries(p)}
            for p in self.correct
        }
        union = set().union(*rdelivered.values()) if rdelivered else set()
        for process, held in rdelivered.items():
            missing = (decided_ids & union) - held
            if missing:
                raise ProtocolViolationError(
                    "Hypothesis A",
                    f"correct p{process} never rdelivered decided messages "
                    f"{sorted(missing)[:3]} held by other correct processes",
                )

    def check_all(self, expect_quiescent: bool = True) -> None:
        """Run every check (liveness ones only on quiescent traces)."""
        self.check_uniform_integrity()
        self.check_uniform_total_order()
        if expect_quiescent:
            self.check_validity()
            self.check_uniform_agreement()
            self.check_correct_prefix_consistency()
            self.check_hypothesis_a()


def check_abcast(
    trace: Trace, config: SystemConfig, expect_quiescent: bool = True
) -> None:
    """Convenience wrapper: run all atomic broadcast checks on ``trace``."""
    AbcastChecker(trace, config).check_all(expect_quiescent=expect_quiescent)
