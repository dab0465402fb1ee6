"""Checkers for reliable and uniform reliable broadcast.

Properties (Section 2.1 of the paper, after [5]):

* **Validity** — if a correct process rbroadcasts ``m``, it eventually
  rdelivers ``m``.
* **Uniform integrity** — every process rdelivers ``m`` at most once,
  and only if ``m`` was previously rbroadcast.
* **Agreement** — if a *correct* process rdelivers ``m``, all correct
  processes eventually rdeliver ``m``.
* **Uniform agreement** (URB only) — if *any* process (correct or not)
  urb-delivers ``m``, all correct processes eventually urb-deliver ``m``.
"""

from __future__ import annotations

from collections import Counter

from repro.core.config import SystemConfig
from repro.core.events import RBroadcastEvent, RDeliverEvent
from repro.core.exceptions import ProtocolViolationError
from repro.core.identifiers import MessageId
from repro.sim.trace import Trace


class BroadcastChecker:
    """Evaluates the broadcast properties on a quiescent trace."""

    def __init__(self, trace: Trace, config: SystemConfig) -> None:
        self.trace = trace
        self.config = config
        self.correct = trace.correct_processes(config.processes)
        #: One pass over the trace's rows: every rbroadcast as
        #: ``(process, mid)``, and each process's rdelivered ids in
        #: order and as a set.
        self._broadcasts: list[tuple[int, MessageId]] = []
        self._delivered_by: dict[int, list] = {p: [] for p in config.processes}
        for cls, _, process, message, _ in trace.rows(
            RDeliverEvent, RBroadcastEvent
        ):
            if cls is RBroadcastEvent:
                self._broadcasts.append((process, message.mid))
            elif process in self._delivered_by:
                self._delivered_by[process].append(message.mid)
        self._broadcast_ids = {mid for _, mid in self._broadcasts}
        self._delivered = {
            p: set(mids) for p, mids in self._delivered_by.items()
        }

    def check_validity(self) -> None:
        """A correct broadcaster delivers its own message."""
        for sender, mid in self._broadcasts:
            if sender in self.correct and mid not in self._delivered[sender]:
                raise ProtocolViolationError(
                    "RB Validity",
                    f"correct p{sender} rbroadcast {mid} but never rdelivered it",
                )

    def check_uniform_integrity(self) -> None:
        """At most one delivery per message per process; no spurious messages."""
        for process, deliveries in self._delivered_by.items():
            counts = Counter(deliveries)
            for mid, count in counts.items():
                if count > 1:
                    raise ProtocolViolationError(
                        "RB Uniform integrity",
                        f"p{process} rdelivered {mid} {count} times",
                    )
                if mid not in self._broadcast_ids:
                    raise ProtocolViolationError(
                        "RB Uniform integrity",
                        f"p{process} rdelivered {mid} which was never rbroadcast",
                    )

    def check_agreement(self) -> None:
        """Correct processes deliver the same set of messages."""
        delivered_by_correct = {p: self._delivered[p] for p in self.correct}
        union = set().union(*delivered_by_correct.values())
        for process, delivered in delivered_by_correct.items():
            missing = union - delivered
            if missing:
                sample = sorted(missing)[:3]
                raise ProtocolViolationError(
                    "RB Agreement",
                    f"correct p{process} missed {len(missing)} messages "
                    f"delivered by other correct processes, e.g. {sample}",
                )

    def check_uniform_agreement(self) -> None:
        """If *anyone* delivered ``m``, every correct process did (URB)."""
        delivered_by_anyone = {
            e.message.mid for e in self.trace.rdeliveries() if e.uniform
        }
        for process in self.correct:
            missing = delivered_by_anyone - self._delivered[process]
            if missing:
                sample = sorted(missing)[:3]
                raise ProtocolViolationError(
                    "URB Uniform agreement",
                    f"correct p{process} missed {len(missing)} urb-delivered "
                    f"messages, e.g. {sample}",
                )

    def check_all(self, uniform: bool = False) -> None:
        """Run every applicable check."""
        self.check_validity()
        self.check_uniform_integrity()
        self.check_agreement()
        if uniform:
            self.check_uniform_agreement()


def check_broadcast(trace: Trace, config: SystemConfig, uniform: bool = False) -> None:
    """Convenience wrapper: run all broadcast checks on ``trace``."""
    BroadcastChecker(trace, config).check_all(uniform=uniform)
