"""The classical reduction: consensus on sets of **full messages**.

This is the original reduction of atomic broadcast to consensus from
Chandra & Toueg [2], the paper's Figure 1 baseline: consensus executions
carry entire messages, so every consensus phase (estimates, proposals,
decisions) ships every payload in the batch.  With large messages or
high throughput this saturates the network — the motivation for the
whole paper.

Because decisions carry the messages themselves, a decided message is
deliverable immediately: decided messages are fed into ``received_p``
before the decision is applied, so the adeliver gate of line 23 never
blocks on diffusion.  Validity needs no No loss property here — the
decision *is* the copy.
"""

from __future__ import annotations

from typing import Any

from repro.abcast.base import AtomicBroadcast
from repro.broadcast.base import BroadcastService
from repro.consensus.base import ConsensusService
from repro.core.config import SystemConfig
from repro.core.exceptions import ConfigurationError, ProtocolViolationError
from repro.core.identifiers import MessageId
from repro.core.message import AppMessage
from repro.net.transport import Transport


class OnMessagesAtomicBroadcast(AtomicBroadcast):
    """Reliable broadcast + consensus on full message sets (correct)."""

    NAME = "abcast-on-messages"

    def __init__(
        self,
        transport: Transport,
        broadcast: BroadcastService,
        consensus: ConsensusService,
        config: SystemConfig,
        batch_cap: int | None = None,
    ) -> None:
        if consensus.codec.name != "message-set":
            raise ConfigurationError(
                "OnMessagesAtomicBroadcast needs a consensus service built "
                f"with MESSAGE_SET_CODEC, got {consensus.codec.name!r} "
                "(the wire-size accounting is the whole point of Figure 1)"
            )
        if consensus.NAME not in ("chandra-toueg", "mostefaoui-raynal"):
            raise ConfigurationError(
                "OnMessagesAtomicBroadcast runs an *original* consensus "
                f"algorithm on messages, got {consensus.NAME!r}"
            )
        super().__init__(transport, broadcast, consensus, config, batch_cap=batch_cap)

    def _proposal_value(self) -> frozenset[AppMessage]:
        """Propose the full messages behind the unordered identifiers."""
        messages = []
        for mid in self._batch():
            message = self.store.get(mid)
            if message is None:
                # unordered_p only ever holds ids of r-delivered messages.
                raise ProtocolViolationError(
                    "Abcast Validity",
                    f"p{self.pid}: unordered id {mid} without received message",
                )
            messages.append(message)
        return frozenset(messages)

    def _decision_ids(self, value: frozenset[AppMessage]) -> frozenset[MessageId]:
        """A decision carries full messages: bank them in ``received_p``
        (they may not have been r-delivered here yet), then order their ids."""
        for message in value:
            self.store.add(message)
        return frozenset(message.mid for message in value)
