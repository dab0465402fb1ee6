"""The reduction skeleton shared by all atomic broadcast variants.

This is Algorithm 1 of the paper, kept deliberately close to the
pseudo-code:

* ``abroadcast(m)`` R-broadcasts ``m`` (line 8);
* R-delivered messages enter ``received_p`` and, unless already ordered,
  ``unordered_p`` (lines 11-14);
* whenever ``unordered_p`` is non-empty a consensus execution is started
  on it (lines 15-18) — executions are numbered ``k = 1, 2, ...`` and
  run one at a time per process;
* a decision removes its identifiers from ``unordered_p`` and appends
  them, in the canonical deterministic order, to ``ordered_p``
  (lines 19-21);
* messages are adelivered when they are both ordered *and* received
  (lines 23-25).

Decisions may reach a process out of instance order (they are flooded);
they are buffered and applied strictly in instance order, which is what
"sequence of consensus executions" means operationally.

Subclasses choose the consensus value type: the id-based variants
propose ``frozenset[MessageId]``, the on-messages variant proposes
``frozenset[AppMessage]`` and feeds decided messages straight into
``received_p`` (with full messages inside consensus, the decision itself
carries every payload).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.broadcast.base import BroadcastService
from repro.consensus.base import ConsensusService
from repro.core.config import SystemConfig
from repro.core.exceptions import ConfigurationError, ProtocolViolationError
from repro.core.identifiers import IdWatermark, MessageId, order_id_set
from repro.core.message import AppMessage, Payload
from repro.core.rcv import ReceivedStore
from repro.net.transport import Transport

ADeliverCallback = Callable[[AppMessage], None]


class AtomicBroadcast:
    """Base class implementing the Algorithm 1 reduction.

    Args:
        transport: This process's network endpoint.
        broadcast: The diffusion layer (reliable or uniform reliable).
        consensus: The ordering layer (any of the four algorithms).
        config: Group configuration.
    """

    #: Human-readable variant name; subclasses override.
    NAME = "abcast"

    def __init__(
        self,
        transport: Transport,
        broadcast: BroadcastService,
        consensus: ConsensusService,
        config: SystemConfig,
        batch_cap: int | None = None,
    ) -> None:
        if batch_cap is not None and batch_cap < 1:
            raise ConfigurationError(f"batch_cap must be >= 1, got {batch_cap}")
        #: Optional limit on how many identifiers one consensus proposal
        #: may carry (an ablation knob; the paper's algorithm proposes
        #: the whole unordered set).
        self.batch_cap = batch_cap
        self.transport = transport
        self.process = transport.process
        self.engine = transport.process.engine
        self.pid = transport.pid
        self.broadcast = broadcast
        self.consensus = consensus
        self.config = config
        #: Ids adelivered here, as per-origin watermarks; shared with
        #: the store, which drops a payload once its id lands here.
        self.adelivered = IdWatermark(config.n)
        self._adelivered_count = 0
        #: ``received_p`` — messages r-delivered so far (line 2).
        self.store = ReceivedStore(self.adelivered)
        #: ``unordered_p`` — received but not yet ordered ids (line 3).
        self.unordered: set[MessageId] = set()
        #: ``ordered_p`` — ordered but not yet adelivered ids (line 5).
        self.ordered: deque[MessageId] = deque()
        self._ordered_set: set[MessageId] = set()
        #: Out-of-order decision buffer: instance -> decided value.
        self._pending_decisions: dict[int, Any] = {}
        #: Next instance whose decision should be applied (``k`` + 1).
        self.next_instance = 1
        self._proposed_through = 0
        self._seq = 0
        self._callbacks: list[ADeliverCallback] = []
        broadcast.on_deliver(self._on_rdeliver)
        consensus.on_decide(self._on_decide)

    def on_adeliver(self, callback: ADeliverCallback) -> None:
        """Register an ``adeliver`` callback (called in delivery order)."""
        self._callbacks.append(callback)

    def close(self) -> None:
        """Drop the adeliver callbacks; part of
        :meth:`~repro.stack.builder.System.close`."""
        self._callbacks = []

    # ------------------------------------------------------------------
    # abroadcast (lines 7-8)
    # ------------------------------------------------------------------

    def abroadcast(self, payload: Payload) -> AppMessage | None:
        """Atomically broadcast a message with ``payload``.

        Returns the created message (so callers can track its id), or
        None if this process has crashed.
        """
        if self.process.crashed:
            return None
        self._seq += 1
        message = AppMessage(MessageId(self.pid, self._seq), payload)
        self.process.trace.abroadcast(self.engine.now, self.pid, message)
        self.broadcast.broadcast(message)
        return message

    # ------------------------------------------------------------------
    # R-deliver path (lines 11-14)
    # ------------------------------------------------------------------

    def _on_rdeliver(self, message: AppMessage) -> None:
        self.store.add(message)
        mid = message.mid
        origin, seq = mid
        adelivered = self.adelivered
        if (
            mid not in self._ordered_set
            and seq > adelivered.through[origin]
            and mid not in adelivered.above
        ):
            self.unordered.add(mid)
        # The rcv predicate's truth value may just have flipped for some
        # pending consensus wait (the wait-for-messages ablation of the
        # CT-indirect algorithm re-evaluates Phase 3 on this signal).
        self.consensus.notify_rcv_update()
        # Each step below is a no-op on an empty queue: skip its call.
        if self.ordered:
            self._try_adeliver()
        if self.unordered:
            self._maybe_propose()

    # ------------------------------------------------------------------
    # Consensus plumbing (lines 15-21)
    # ------------------------------------------------------------------

    def _maybe_propose(self) -> None:
        """Line 15: run a consensus whenever there are unordered messages."""
        if self.process.crashed or not self.unordered:
            return
        k = self.next_instance
        if self._proposed_through >= k or k in self._pending_decisions:
            return
        self._proposed_through = k
        self.consensus.propose(k, self._proposal_value(), self._rcv_function())

    def _batch(self) -> frozenset[MessageId]:
        """The identifiers this proposal will carry (capped if configured).

        With a cap, the oldest identifiers in the canonical order go
        first, so no message starves behind endless newer arrivals.
        """
        if self.batch_cap is None or len(self.unordered) <= self.batch_cap:
            return frozenset(self.unordered)
        return frozenset(order_id_set(self.unordered)[: self.batch_cap])

    def _proposal_value(self) -> Any:
        """Value proposed to consensus; id-based variants use the ids."""
        return self._batch()

    def _rcv_function(self) -> Any:
        """The rcv predicate passed to propose; None for the original
        (non-indirect) consensus algorithms."""
        return None

    def _on_decide(self, k: int, value: Any) -> None:
        self._pending_decisions[k] = value
        self._apply_decisions()

    def _decision_ids(self, value: Any) -> frozenset[MessageId]:
        """Project a decided value onto the identifier set it orders."""
        return frozenset(value)

    def _apply_decisions(self) -> None:
        progressed = False
        while self.next_instance in self._pending_decisions:
            value = self._pending_decisions.pop(self.next_instance)
            ids = self._decision_ids(value)
            # Line 19: unordered_p <- unordered_p \ idSet_k
            self.unordered -= ids
            # Lines 20-21: append idSeq_k in the deterministic order.
            through = self.adelivered.through
            above = self.adelivered.above
            for mid in order_id_set(ids):
                origin, seq = mid
                if (
                    mid in self._ordered_set
                    or seq <= through[origin]
                    or mid in above
                ):
                    raise ProtocolViolationError(
                        "Uniform integrity",
                        f"p{self.pid}: {mid} ordered twice "
                        f"(instance {self.next_instance})",
                    )
                self.ordered.append(mid)
                self._ordered_set.add(mid)
            self.next_instance += 1
            progressed = True
        if progressed:
            self._try_adeliver()
            self._maybe_propose()

    # ------------------------------------------------------------------
    # adeliver (lines 23-25)
    # ------------------------------------------------------------------

    def _try_adeliver(self) -> None:
        """Deliver ordered messages whose payload has been received."""
        if self.process.crashed:
            return
        through = self.adelivered.through
        above = self.adelivered.above
        while self.ordered:
            head = self.ordered[0]
            message = self.store.take(head)
            if message is None:
                return  # head of line not received yet (line 23 gate)
            self.ordered.popleft()
            self._ordered_set.discard(head)
            # Insert ``head`` into the watermark inline (see
            # BroadcastService._deliver).
            origin, seq = head
            if seq == through[origin] + 1:
                while above and (origin, seq + 1) in above:
                    seq += 1
                    above.remove((origin, seq))
                through[origin] = seq
            else:
                above.add(head)
            self._adelivered_count += 1
            self.process.trace.adeliver(self.engine.now, self.pid, message)
            for callback in self._callbacks:
                callback(message)

    # ------------------------------------------------------------------
    # Introspection helpers (tests, examples, diagnostics)
    # ------------------------------------------------------------------

    def delivered_count(self) -> int:
        """Number of messages this process has adelivered."""
        return self._adelivered_count

    def backlog(self) -> dict[str, int]:
        """Sizes of the internal queues (diagnostics)."""
        return {
            "unordered": len(self.unordered),
            "ordered_awaiting_message": len(self.ordered),
            "pending_decisions": len(self._pending_decisions),
        }
