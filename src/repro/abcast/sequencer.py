"""Fixed-sequencer atomic broadcast — the classic non-consensus baseline.

The standard comparison class for consensus-based atomic broadcast
(Défago, Schiper & Urbán's survey calls it the *fixed sequencer*
class): every sender forwards its message to an elected **sequencer**,
which assigns consecutive sequence numbers and broadcasts the ordering;
processes adeliver strictly in sequence-number order.  Failure-free,
ordering one message costs one forward + ``n - 1`` ordering frames +
``(n - 1)(n - 2)`` relays — no consensus rounds, no rcv() bookkeeping,
which is why sequencers are the latency yardstick consensus-based
stacks are measured against.

Crash tolerance comes from **FD-driven handover** in numbered epochs:

* the sequencer of epoch ``e`` is ``peers[e mod n]``;
* when the failure detector suspects the current sequencer, the
  next-ranked unsuspected process starts a takeover: it **wedges** the
  group (processes stop accepting orderings from older epochs and
  report every ordering they hold), waits for the state of every
  process it does not suspect, **seals** the merged log — sequence
  numbers missing from the union are skipped for good, their messages
  get fresh numbers later — and resumes assigning from the seal;
* orderings, wedges and seals are relayed on first receipt (the same
  flooding discipline the consensus stacks use for decisions), and
  senders periodically retransmit unordered messages to the current
  sequencer, so partitions heal and lost forwards are retried;
* the sequencer adelivers its *own* assignments only after another
  process has echoed the ordering back (the first relay copy): were it
  to deliver immediately and crash with every order frame undelivered,
  the survivors would renumber the message and contradict its local
  delivery order.

**Accuracy caveat** (the reason indirect consensus exists): handover is
safe when the failure detector does not *falsely* suspect the sequencer
while some process still holds unreported orderings — i.e. the protocol
assumes ◇P-like accuracy (the oracle detector) during handover, plus
the paper's quasi-reliable FIFO channels.  Under sustained false
suspicions a wedged majority can seal away an ordering a falsely
suspected process already delivered, breaking Uniform total order —
the classical split-brain of sequencer protocols, which the
consensus-based stacks of the paper are immune to.  Uniformity of
delivered orderings likewise rests on the single-echo stability rule
above: it covers any single crash, but *dependent* multi-crash
executions (the sequencer and its only echoer dying together with
their socket buffers) would need quorum acks — exactly the extra cost
the uniform stacks pay by design.  The registry keeps
this baseline honest: it is registered with ``consensus="none"`` and
compared against the consensus stacks through the same checkers.

This layer deliberately does **not** subclass
:class:`~repro.abcast.base.AtomicBroadcast` (there is no consensus to
reduce to); it implements the same public surface — ``abroadcast``,
``on_adeliver``, ``delivered_count``, ``backlog`` — that the harness,
workloads and checkers drive.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.config import SystemConfig
from repro.core.exceptions import ConfigurationError
from repro.core.identifiers import IdWatermark, MessageId, ProcessId
from repro.core.message import AppMessage, Payload
from repro.failure.detector import FailureDetector
from repro.net.frame import Frame
from repro.net.transport import Transport

ADeliverCallback = Callable[[AppMessage], None]

#: Bytes of sequencing bookkeeping (epoch + sequence number) per frame.
SEQUENCER_HEADER_SIZE = 12


class SequencerAtomicBroadcast:
    """Fixed-sequencer atomic broadcast with epoch-based handover.

    Args:
        transport: This process's network endpoint.
        detector: The failure detector driving sequencer handover.
        config: Group configuration.
        resend_interval: Period of the retry timer — pending-forward
            retransmission, takeover re-wedging, and the active
            sequencer's ``sync`` beacon that lets processes detect and
            repair ordering gaps (partition healing).
    """

    NAME = "abcast-sequencer"

    def __init__(
        self,
        transport: Transport,
        detector: FailureDetector,
        config: SystemConfig,
        resend_interval: float = 50e-3,
    ) -> None:
        if resend_interval <= 0:
            raise ConfigurationError("resend_interval must be > 0")
        self.transport = transport
        self.process = transport.process
        self.engine = transport.process.engine
        self.pid = transport.pid
        self.detector = detector
        self.config = config
        self.resend_interval = resend_interval
        self.peers = transport.peers

        #: Current *active* epoch (its seal has been applied; epoch 0 is
        #: active from the start) and the highest epoch wedged for.
        self.epoch = 0
        self.wedged_for = 0
        #: The ordered log: seqno -> (epoch that assigned it, message).
        self.log: dict[int, tuple[int, AppMessage]] = {}
        #: Ids in the log whose slot delivery has not reached:
        #: :meth:`_try_deliver` removes an id at its slot, also a
        #: renumbered duplicate's, and a seal adds no adelivered id.
        #: The one lookup (``_assign``) also checks ``adelivered``.
        self._ordered_mids: set[MessageId] = set()
        #: Own assignments not yet echoed by any other process: the
        #: sequencer must not adeliver them yet (see :meth:`_assign`).
        self._unstable: set[int] = set()
        #: Seqnos <= sealed_through are final: absent ones are skipped.
        self.sealed_through = 0
        self.next_deliver = 1
        #: Ids adelivered here, as per-origin watermarks.
        self.adelivered = IdWatermark(config.n)
        self._adelivered_count = 0
        #: Sequencer duty: next seqno to assign (meaningful when active).
        self.next_seq = 1
        #: Own messages awaiting an ordering (retransmitted on a timer).
        self.pending: dict[MessageId, AppMessage] = {}
        #: Takeover in progress: target epoch and collected states.
        self._takeover_epoch: int | None = None
        self._states: dict[ProcessId, tuple] = {}
        self._seq = 0
        self._callbacks: list[ADeliverCallback] = []

        transport.register("seq.fwd.data", self._on_fwd)
        transport.register("seq.order.data", self._on_order)
        transport.register("seq.wedge", self._on_wedge)
        transport.register("seq.state.data", self._on_state)
        transport.register("seq.seal.data", self._on_seal)
        transport.register("seq.sync", self._on_sync)
        transport.register("seq.repair", self._on_repair)
        detector.on_change(self._on_detector_change)
        self.process.schedule(self.resend_interval, self._on_timer)

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------

    def sequencer_of(self, epoch: int) -> ProcessId:
        """The sequencer of ``epoch``: round-robin over the group."""
        return self.peers[epoch % len(self.peers)]

    def is_active_sequencer(self) -> bool:
        """True iff this process assigns sequence numbers right now."""
        return (
            self.wedged_for == self.epoch
            and self.sequencer_of(self.epoch) == self.pid
        )

    # ------------------------------------------------------------------
    # Public surface (mirrors AtomicBroadcast)
    # ------------------------------------------------------------------

    def on_adeliver(self, callback: ADeliverCallback) -> None:
        """Register an ``adeliver`` callback (called in delivery order)."""
        self._callbacks.append(callback)

    def close(self) -> None:
        """Drop the adeliver callbacks; part of
        :meth:`~repro.stack.builder.System.close`."""
        self._callbacks = []

    def abroadcast(self, payload: Payload) -> AppMessage | None:
        """Atomically broadcast a message with ``payload``."""
        if self.process.crashed:
            return None
        self._seq += 1
        message = AppMessage(MessageId(self.pid, self._seq), payload)
        self.process.trace.abroadcast(self.engine.now, self.pid, message)
        self.pending[message.mid] = message
        self._forward(message)
        return message

    def delivered_count(self) -> int:
        """Number of messages this process has adelivered."""
        return self._adelivered_count

    def backlog(self) -> dict[str, int]:
        """Sizes of the internal queues (diagnostics)."""
        return {
            "pending_forwards": len(self.pending),
            "ordered_awaiting_delivery": sum(
                1 for s in self.log if s >= self.next_deliver
            ),
            "log": len(self.log),
        }

    # ------------------------------------------------------------------
    # Data path: forward -> assign -> order -> deliver
    # ------------------------------------------------------------------

    def _forward(self, message: AppMessage) -> None:
        if self.is_active_sequencer():
            self._assign(message)
            return
        self.transport.send(
            self.sequencer_of(self.epoch),
            "seq.fwd.data",
            body=message,
            size=message.wire_size(),
        )

    def _on_fwd(self, frame: Frame) -> None:
        # Forwards addressed to a stale or not-yet-active sequencer are
        # dropped; the sender's retry timer re-targets the current one.
        if self.is_active_sequencer():
            self._assign(frame.body)

    def _assign(self, message: AppMessage) -> None:
        mid = message.mid
        origin, seq = mid
        adelivered = self.adelivered
        if (
            mid in self._ordered_mids
            or seq <= adelivered.through[origin]
            or mid in adelivered.above
        ):
            return
        seqno = self.next_seq
        self.next_seq += 1
        self.transport.send_all(
            "seq.order.data",
            body=(self.epoch, seqno, message),
            size=message.wire_size() + SEQUENCER_HEADER_SIZE,
            include_self=False,
        )
        self.log[seqno] = (self.epoch, message)
        self._ordered_mids.add(message.mid)
        self.pending.pop(message.mid, None)
        if len(self.peers) > 1:
            # The sequencer must not adeliver its own assignment until
            # another process echoes the ordering back (peers relay on
            # first receipt, so the first relay copy is that echo): if
            # the sequencer crashed now with its order frames undelivered,
            # survivors would renumber the message, and a local delivery
            # here would contradict their order — Uniform total order.
            self._unstable.add(seqno)
        self._try_deliver()

    def _on_order(self, frame: Frame) -> None:
        epoch, seqno, message = frame.body
        self._accept(epoch, seqno, message, relay=True)

    def _accept(
        self, epoch: int, seqno: int, message: AppMessage, relay: bool
    ) -> None:
        """Admit one ordering into the log (idempotent), relay, deliver."""
        if epoch < self.wedged_for:
            return  # stale epoch: its unreported orderings are void
        if seqno in self.log:
            if seqno in self._unstable:
                # An echo of our own assignment: some other process
                # holds the ordering now, so delivering it is safe.
                self._unstable.discard(seqno)
                self._try_deliver()
            return
        if seqno <= self.sealed_through:
            return  # slot sealed empty; the message will be renumbered
        if relay:
            # Flood on first receipt, *before* delivering: whoever
            # adelivers has already pushed the ordering to everybody,
            # which is what Uniform agreement rests on.
            self.transport.send_all(
                "seq.order.data",
                body=(epoch, seqno, message),
                size=message.wire_size() + SEQUENCER_HEADER_SIZE,
                include_self=False,
            )
        self.log[seqno] = (epoch, message)
        self._ordered_mids.add(message.mid)
        self.pending.pop(message.mid, None)
        self._try_deliver()

    def _try_deliver(self) -> None:
        if self.process.crashed:
            return
        through = self.adelivered.through
        above = self.adelivered.above
        while True:
            seqno = self.next_deliver
            entry = self.log.get(seqno)
            if entry is None:
                if seqno <= self.sealed_through:
                    self.next_deliver += 1  # sealed-empty slot
                    continue
                return
            if seqno in self._unstable:
                return  # own assignment awaiting its first echo
            self.next_deliver += 1
            _, message = entry
            mid = message.mid
            self._ordered_mids.discard(mid)
            origin, seq = mid
            if seq <= through[origin] or mid in above:
                continue  # renumbered duplicate
            # Insert inline (see BroadcastService._deliver).
            if seq == through[origin] + 1:
                while above and (origin, seq + 1) in above:
                    seq += 1
                    above.remove((origin, seq))
                through[origin] = seq
            else:
                above.add(mid)
            self._adelivered_count += 1
            self.process.trace.adeliver(self.engine.now, self.pid, message)
            for callback in self._callbacks:
                callback(message)

    # ------------------------------------------------------------------
    # Handover: suspect -> wedge -> collect -> seal -> resume
    # ------------------------------------------------------------------

    def _on_detector_change(self) -> None:
        if self.process.crashed:
            return
        target = max(self.epoch, self.wedged_for)
        if not self.detector.is_suspected(self.sequencer_of(target)):
            return
        epoch = target + 1
        while self.detector.is_suspected(self.sequencer_of(epoch)):
            epoch += 1
        if self.sequencer_of(epoch) == self.pid and epoch > self.wedged_for:
            self._start_takeover(epoch)
        self._maybe_seal()

    def _start_takeover(self, epoch: int) -> None:
        self.wedged_for = epoch
        self._takeover_epoch = epoch
        self._states = {self.pid: self._log_snapshot()}
        self._broadcast_wedge()
        self._maybe_seal()

    def _broadcast_wedge(self) -> None:
        assert self._takeover_epoch is not None
        self.transport.send_all(
            "seq.wedge",
            body=self._takeover_epoch,
            size=SEQUENCER_HEADER_SIZE,
            include_self=False,
        )

    def _log_snapshot(self) -> tuple:
        return tuple(
            (seqno, epoch, message)
            for seqno, (epoch, message) in sorted(self.log.items())
        )

    def _on_wedge(self, frame: Frame) -> None:
        epoch = frame.body
        if epoch < self.wedged_for:
            return
        self.wedged_for = epoch  # stop accepting older-epoch orderings
        if self._takeover_epoch is not None and self._takeover_epoch < epoch:
            self._takeover_epoch = None  # a higher-epoch takeover wins
            self._states = {}
        snapshot = self._log_snapshot()
        self.transport.send(
            frame.src,
            "seq.state.data",
            body=(epoch, snapshot),
            size=sum(m.wire_size() for _, _, m in snapshot)
            + SEQUENCER_HEADER_SIZE,
        )

    def _on_state(self, frame: Frame) -> None:
        epoch, snapshot = frame.body
        if self._takeover_epoch is None or epoch != self._takeover_epoch:
            return
        self._states[frame.src] = snapshot
        self._maybe_seal()

    def _maybe_seal(self) -> None:
        if self._takeover_epoch is None:
            return
        needed = {
            pid for pid in self.peers if not self.detector.is_suspected(pid)
        }
        if not needed <= set(self._states):
            return
        merged: dict[int, tuple[int, AppMessage]] = dict(self.log)
        for snapshot in self._states.values():
            for seqno, epoch, message in snapshot:
                held = merged.get(seqno)
                if held is None or held[0] < epoch:
                    merged[seqno] = (epoch, message)
        epoch = self._takeover_epoch
        sealed_through = max(merged, default=0)
        sealed_through = max(sealed_through, self.sealed_through)
        self._takeover_epoch = None
        self._states = {}
        self._apply_seal(epoch, merged, sealed_through)
        self.transport.send_all(
            "seq.seal.data",
            body=(epoch, self._log_snapshot(), sealed_through),
            size=sum(m.wire_size() for _, m in self.log.values())
            + SEQUENCER_HEADER_SIZE,
            include_self=False,
        )

    def _apply_seal(
        self,
        epoch: int,
        entries: dict[int, tuple[int, AppMessage]],
        sealed_through: int,
    ) -> None:
        self.epoch = epoch
        self.wedged_for = max(self.wedged_for, epoch)
        if self._takeover_epoch is not None and self._takeover_epoch <= epoch:
            self._takeover_epoch = None
            self._states = {}
        for seqno, (entry_epoch, message) in entries.items():
            held = self.log.get(seqno)
            if held is None or held[0] < entry_epoch:
                self.log[seqno] = (entry_epoch, message)
                if message.mid not in self.adelivered:
                    # The slot may lie behind next_deliver, which
                    # would never reach it to remove the id.
                    self._ordered_mids.add(message.mid)
                self.pending.pop(message.mid, None)
        self.sealed_through = max(self.sealed_through, sealed_through)
        self.next_seq = self.sealed_through + 1
        # Reconcile never-echoed own assignments against the seal: a
        # sealed entry is held by others (stable); one the seal lacks is
        # held by nobody else — drop it so the sealed-empty slot is
        # skipped like everywhere else, and requeue the message so the
        # retry timer re-forwards it for a fresh number.
        for seqno in sorted(self._unstable):
            if seqno in entries:
                self._unstable.discard(seqno)
            elif seqno <= self.sealed_through:
                self._unstable.discard(seqno)
                _, message = self.log.pop(seqno)
                self._ordered_mids.discard(message.mid)
                if message.mid not in self.adelivered:
                    self.pending[message.mid] = message
        self._try_deliver()
        self._resend_pending()

    def _on_seal(self, frame: Frame) -> None:
        epoch, snapshot, sealed_through = frame.body
        if epoch <= self.epoch:
            return
        # Relay on first adoption, then apply: a seal reaching any
        # correct process reaches all of them.
        self.transport.send_all(
            "seq.seal.data",
            body=(epoch, snapshot, sealed_through),
            size=sum(m.wire_size() for _, _, m in snapshot)
            + SEQUENCER_HEADER_SIZE,
            include_self=False,
        )
        entries = {
            seqno: (entry_epoch, message)
            for seqno, entry_epoch, message in snapshot
        }
        self._apply_seal(epoch, entries, sealed_through)

    # ------------------------------------------------------------------
    # Retry / repair timer
    # ------------------------------------------------------------------

    def _on_timer(self) -> None:
        if self._takeover_epoch is not None:
            self._broadcast_wedge()  # re-ask processes whose state is lost
            self._maybe_seal()
        elif self.is_active_sequencer():
            self.transport.send_all(
                "seq.sync",
                body=(self.epoch, self.next_seq),
                size=SEQUENCER_HEADER_SIZE,
                include_self=False,
            )
        self._resend_pending()
        self.process.schedule(self.resend_interval, self._on_timer)

    def _resend_pending(self) -> None:
        for message in list(self.pending.values()):
            self._forward(message)

    def _on_sync(self, frame: Frame) -> None:
        epoch, next_seq = frame.body
        if epoch < self.epoch:
            return
        if epoch > self.epoch or self.next_deliver < next_seq:
            # Missed a seal and/or orderings (e.g. a healed partition):
            # ask the sequencer to replay from our contiguous prefix.
            self.transport.send(
                frame.src,
                "seq.repair",
                body=self.next_deliver,
                size=SEQUENCER_HEADER_SIZE,
            )

    def _on_repair(self, frame: Frame) -> None:
        if not self.is_active_sequencer():
            return
        if self.epoch > 0:
            self.transport.send(
                frame.src,
                "seq.seal.data",
                body=(self.epoch, self._log_snapshot(), self.sealed_through),
                size=sum(m.wire_size() for _, m in self.log.values())
                + SEQUENCER_HEADER_SIZE,
            )
        for seqno in range(frame.body, self.next_seq):
            entry = self.log.get(seqno)
            if entry is None:
                continue
            epoch, message = entry
            self.transport.send(
                frame.src,
                "seq.order.data",
                body=(epoch, seqno, message),
                size=message.wire_size() + SEQUENCER_HEADER_SIZE,
            )
