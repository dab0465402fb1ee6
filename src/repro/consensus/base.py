"""Shared machinery of the four consensus implementations.

A :class:`ConsensusService` lives on one process and manages *all*
consensus instances of that process (the atomic broadcast reduction
numbers executions ``k = 1, 2, ...``).  Subclasses contribute the
per-instance state machine; the base class owns:

* the public API — ``propose(k, value, rcv)`` and ``on_decide`` —
  mirroring the paper's ``propose``/``decide`` primitives;
* the reliable flooding of ``decide`` messages (the algorithms
  *R-broadcast* their decision: first receipt forwards to everybody,
  so a decision reaching any correct process reaches all of them);
* buffering of frames that arrive before the local ``propose`` (a
  process may receive round messages or even decisions for instances it
  has not started yet);
* trace records (``ProposeEvent`` / ``DecideEvent``) and the resilience
  guard that enforces each algorithm's ``f`` bound at configuration time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Generic, Hashable, Iterator, TypeVar

from repro.core.config import SystemConfig
from repro.core.events import DecideEvent, ProposeEvent
from repro.core.exceptions import ConfigurationError, ResilienceExceededError
from repro.core.identifiers import MessageId, id_set_wire_size
from repro.core.message import AppMessage
from repro.core.rcv import RcvFunction
from repro.failure.detector import FailureDetector
from repro.net.frame import Frame
from repro.net.transport import Transport

V = TypeVar("V", bound=Hashable)

#: Bytes of bookkeeping (instance number, round, phase tag) per consensus frame.
CONSENSUS_HEADER_SIZE = 16

DecideCallback = Callable[[int, Any], None]


@dataclass(frozen=True)
class ValueCodec(Generic[V]):
    """How the algorithms account for and trace their opaque values.

    Attributes:
        name: Codec name for diagnostics.
        wire_size: Serialized size of a value in bytes.  This is the
            paper's pivotal quantity: identifier sets cost 12 bytes per
            id regardless of payload; full message sets cost the payload.
        to_ids: Projection of a value to the identifier set it orders
            (used for trace events and the No loss checker).
    """

    name: str
    wire_size: Callable[[Any], int]
    to_ids: Callable[[Any], frozenset[MessageId]]


def _ids_of_messages(value: frozenset[AppMessage]) -> frozenset[MessageId]:
    return frozenset(m.mid for m in value)


#: Codec for values that are sets of message identifiers.
ID_SET_CODEC: ValueCodec = ValueCodec(
    name="id-set",
    wire_size=id_set_wire_size,
    to_ids=frozenset,
)

#: Codec for values that are sets of full application messages.
MESSAGE_SET_CODEC: ValueCodec = ValueCodec(
    name="message-set",
    wire_size=lambda value: sum(m.wire_size() for m in value),
    to_ids=_ids_of_messages,
)


class RoundLog:
    """Round-entry times of the decided instances a process proposed in.

    A decided instance is never consulted again, so the service drops
    it and keeps only what post-run analysis reads: the simulated time
    at which it entered each round.  Packed into three arrays — the
    instance numbers, each instance's end offset into ``times``, and
    ``times`` — so the log costs no Python object per instance and holds
    no reference back into the wiring (it stays readable after
    :meth:`~repro.stack.builder.System.close`).  The service appends
    inline in ``_decide_local``, in decision order, so a decision costs
    no extra Python call.
    """

    __slots__ = ("instances", "ends", "times")

    def __init__(self) -> None:
        self.instances = array("q")
        self.ends = array("q")
        self.times = array("d")

    def __len__(self) -> int:
        return len(self.instances)

    def items(self) -> Iterator[tuple[int, tuple[float, ...]]]:
        """``(k, round-entry times)`` per logged instance, in decision order."""
        times = self.times
        start = 0
        for k, end in zip(self.instances, self.ends):
            yield k, tuple(times[start:end])
            start = end


class ConsensusService:
    """Base class for the multi-instance consensus services.

    Args:
        transport: The owning process's network endpoint.
        config: Group configuration (``n``, ``f``, quorum sizes).
        detector: The unreliable failure detector ``D_p``.
        codec: Value accounting (see :class:`ValueCodec`).
        charge_rcv: Optional callback charging CPU time for ``lookups``
            identifier probes made by the ``rcv`` predicate; wired to
            :meth:`repro.net.models.ContentionNetwork.charge_rcv_lookups`
            by the experiment harness.
        enforce_resilience: Fail fast if ``config.f`` exceeds what the
            algorithm tolerates.  Scenario tests that deliberately
            exceed the bound (to demonstrate the violations the paper
            describes) pass False.
    """

    #: Human-readable algorithm name; subclasses override.
    NAME = "consensus"
    #: Frame-kind prefix; subclasses override so kinds never collide.
    PREFIX = "cons"
    #: Indirect algorithms require an rcv predicate at propose time.
    REQUIRES_RCV = False

    def __init__(
        self,
        transport: Transport,
        config: SystemConfig,
        detector: FailureDetector,
        codec: ValueCodec,
        charge_rcv: Callable[[int], None] | None = None,
        enforce_resilience: bool = True,
    ) -> None:
        if config.n != len(transport.peers):
            raise ConfigurationError(
                f"config says n={config.n} but the network has "
                f"{len(transport.peers)} processes"
            )
        if enforce_resilience and not self.tolerates(config):
            raise ResilienceExceededError(
                f"{self.NAME} tolerates {self.resilience_bound(config)} "
                f"crashes at n={config.n}, configured f={config.f}"
            )
        self.transport = transport
        self.process = transport.process
        self.engine = transport.process.engine
        self.config = config
        self.detector = detector
        self.codec = codec
        self.charge_rcv = charge_rcv
        # Per-step constants as plain attributes, not read via ``config``.
        self.pid = transport.pid
        self.n = config.n
        self.majority = config.majority_quorum  # ⌈(n+1)/2⌉: CT Phases 2, 4
        #: The undecided instances, in creation order: a decision
        #: retires its instance (later frames for it are dropped).
        self._instances: dict[int, Any] = {}
        #: Round-entry times of the decided instances proposed here.
        self.round_log = RoundLog()
        #: Instance numbers stalled on a failed ``rcv`` (the "wait"
        #: policy's Phase 3) — the only ones a new message can move.
        self._parked: set[int] = set()
        self._callbacks: list[DecideCallback] = []
        self.decided: dict[int, Any] = {}
        #: Instances whose decide frame was forwarded: all of ``1 ..
        #: _forwarded_through`` plus the instance numbers in
        #: ``_forwarded_above`` (decisions that overtook a predecessor).
        self._forwarded_through = 0
        self._forwarded_above: set[int] = set()
        transport.register(f"{self.PREFIX}.decide", self._on_decide_frame)
        detector.on_change(self._on_detector_change)

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------

    @classmethod
    def tolerates(cls, config: SystemConfig) -> bool:
        """Whether the algorithm supports ``config.f`` crashes at ``config.n``."""
        return config.f <= cls.resilience_bound(config)

    @classmethod
    def resilience_bound(cls, config: SystemConfig) -> int:
        """Largest supported ``f``; subclasses override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def on_decide(self, callback: DecideCallback) -> None:
        """Register a ``decide(k, v)`` callback."""
        self._callbacks.append(callback)

    def close(self) -> None:
        """Drop the decide callbacks and the undecided instances (each
        points back at this service); part of
        :meth:`~repro.stack.builder.System.close`.  ``decided`` and
        ``round_log`` stay."""
        self._callbacks = []
        self._instances = {}

    def propose(self, k: int, value: Any, rcv: RcvFunction | None = None) -> None:
        """Start instance ``k`` with initial ``value`` (and ``rcv`` for the
        indirect algorithms).

        Mirrors ``propose(k, v, rcv)`` of Algorithm 1 line 17; instances
        are independent, and frames that arrived before the local
        propose are replayed by the instance state machine.
        """
        if self.REQUIRES_RCV and rcv is None:
            raise ConfigurationError(
                f"{self.NAME} is an indirect algorithm: propose(k, v, rcv) "
                f"needs the rcv predicate (Algorithm 1 lines 9-10)"
            )
        if self.process.crashed or k in self.decided:
            return
        instance = self._instance(k)
        if instance.proposed:
            raise ConfigurationError(f"p{self.pid}: instance {k} already proposed")
        self.process.trace.record(
            ProposeEvent(self.engine.now, self.pid, k, self.codec.to_ids(value))
        )
        instance.start(value, rcv)

    def has_decided(self, k: int) -> bool:
        return k in self.decided

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------

    def _instance(self, k: int) -> Any:
        instance = self._instances.get(k)
        if instance is None:
            instance = self._make_instance(k)
            self._instances[k] = instance
        return instance

    def _make_instance(self, k: int) -> Any:
        raise NotImplementedError

    def _on_detector_change(self) -> None:
        if self.process.crashed:
            return
        for instance in list(self._instances.values()):
            instance.on_detector_change()

    def notify_rcv_update(self) -> None:
        """The layer above received a new message: any wait whose rcv
        predicate may have flipped to true is re-evaluated.

        A no-op for the original algorithms (they never consult rcv)
        and whenever nothing is parked on ``rcv``: only CT's "wait"
        policy parks, never its default nack-on-missing nor MR; the
        parked instances re-run their Phase 3 check, oldest first.
        """
        if not self._parked or self.process.crashed:
            return
        for instance in [
            i for k, i in self._instances.items() if k in self._parked
        ]:
            instance.on_rcv_update()

    # ------------------------------------------------------------------
    # rcv accounting
    # ------------------------------------------------------------------

    def check_rcv(self, rcv: RcvFunction | None, value: Any) -> bool:
        """Evaluate ``rcv`` on the identifier set of ``value``, charging CPU.

        The original (non-indirect) algorithms never call this; the
        indirect ones call it everywhere the paper's pseudo-code calls
        ``rcv``.  Each evaluation is charged ``|value|`` identifier
        lookups — the cost the paper measures as the overhead of
        indirect consensus.
        """
        if rcv is None:
            raise ConfigurationError(
                f"{self.NAME} requires an rcv predicate; propose(k, v, rcv)"
            )
        ids = self.codec.to_ids(value)
        if self.charge_rcv is not None:
            self.charge_rcv(len(ids))
        return rcv(ids)

    # ------------------------------------------------------------------
    # Decision flooding (the R-broadcast of decide messages)
    # ------------------------------------------------------------------

    def _broadcast_decision(self, k: int, value: Any) -> None:
        """R-broadcast ``(k, value, decide)`` to all (Alg. 2 l.37, Alg. 3 l.26)."""
        self.transport.send_all(
            f"{self.PREFIX}.decide",
            body=(k, value),
            size=self.codec.wire_size(value) + CONSENSUS_HEADER_SIZE,
        )

    def _on_decide_frame(self, frame: Frame) -> None:
        k, value = frame.body
        through = self._forwarded_through
        above = self._forwarded_above
        if k <= through or k in above:
            # A repeat: the first receipt decided ``k`` or found the
            # process crashed (permanent), so there is nothing to do.
            return
        # First receipt: forward to everybody else before deciding,
        # which is what makes the decide diffusion a *reliable*
        # broadcast (any correct receiver re-diffuses).
        if k == through + 1:
            through = k
            while above and through + 1 in above:
                through += 1
                above.remove(through)
            self._forwarded_through = through
        else:
            above.add(k)
        self.transport.send_all(
            f"{self.PREFIX}.decide",
            body=(k, value),
            size=self.codec.wire_size(value) + CONSENSUS_HEADER_SIZE,
            include_self=False,
        )
        self._decide_local(k, value)

    def _decide_local(self, k: int, value: Any) -> None:
        """Decide instance ``k`` (at most once per process)."""
        if k in self.decided or self.process.crashed:
            return
        self.decided[k] = value
        instance = self._instances.pop(k, None)
        if instance is not None:
            self._parked.discard(k)
            instance.stop()
            if instance.proposed:
                log = self.round_log
                log.instances.append(k)
                log.times.extend(instance.round_entries)
                log.ends.append(len(log.times))
        self.process.trace.record(
            DecideEvent(self.engine.now, self.pid, k, self.codec.to_ids(value))
        )
        for callback in self._callbacks:
            callback(k, value)
