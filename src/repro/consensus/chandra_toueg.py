"""The Chandra-Toueg ◇S consensus algorithm (original form).

The rotating-coordinator algorithm of [2], structured in rounds of four
phases (the paper recalls it in Section 3.2.1):

* **Phase 1** — every process sends its ``(estimate, ts)`` to the round's
  coordinator (skipped in round 1).
* **Phase 2** — the coordinator gathers ``⌈(n+1)/2⌉`` estimates, selects
  one with the largest timestamp, and sends it to all (in round 1 it
  proposes its own estimate directly).
* **Phase 3** — every process either receives the coordinator's proposal
  (adopts it, stamps ``ts = r``, acks) or suspects the coordinator
  (nacks) — the "wait until received ... or c_p ∈ D_p" of line 23.
* **Phase 4** — the coordinator waits for ``⌈(n+1)/2⌉`` acks (decide and
  R-broadcast the decision) or a single nack (next round).

Resilience ``f < n/2``; termination under ◇S.

The implementation below is shared with the indirect adaptation
(Algorithm 2 of the paper): the *only* behavioural differences are the
acceptance test of Phase 3 and the bookkeeping of the coordinator's
``estimate_c``, both isolated in overridable hooks.  Running this class
directly is exactly the original algorithm — including, when handed
message identifiers, the broken behaviour of Section 2.2 that the
scenario tests demonstrate.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.base import CONSENSUS_HEADER_SIZE, ConsensusService
from repro.core.config import SystemConfig
from repro.core.exceptions import ConfigurationError
from repro.core.rcv import RcvFunction
from repro.net.frame import Frame

#: Wire size of an ack/nack frame body.
ACK_SIZE = 12


class CtInstance:
    """State machine of one Chandra-Toueg consensus instance at one process.

    All waits of the pseudo-code become idempotent ``_try_phaseN``
    re-evaluations, invoked whenever a frame arrives, the failure
    detector changes, or the instance (re)starts.  Frames for rounds the
    process has not reached yet are buffered in the per-round maps and
    picked up when the round is entered.
    """

    __slots__ = (
        "service",
        "k",
        "proposed",
        "stopped",
        "estimate",
        "rcv",
        "ts",
        "r",
        "c",
        "estimates",
        "proposals",
        "acks",
        "nacks",
        "proposal_sent",
        "proposed_value",
        "phase3_done",
        "phase4_done",
        "round_entries",
    )

    def __init__(self, service: "ChandraTouegConsensus", k: int) -> None:
        self.service = service
        self.k = k
        self.proposed = False
        self.stopped = False
        self.estimate: Any = None
        self.rcv: RcvFunction | None = None
        self.ts = 0
        self.r = 0
        #: Coordinator of round ``r``, fixed when the round is entered.
        self.c = 0
        # Per-round buffers (populated by frames, consulted by phases).
        self.estimates: dict[int, dict[int, tuple[Any, int]]] = {}
        self.proposals: dict[int, Any] = {}
        self.acks: dict[int, set[int]] = {}
        self.nacks: dict[int, set[int]] = {}
        # Per-round progress flags.
        self.proposal_sent: set[int] = set()
        self.proposed_value: dict[int, Any] = {}
        self.phase3_done: set[int] = set()
        self.phase4_done: set[int] = set()
        #: Simulated time at which each round was entered (obs spans).
        self.round_entries: list[float] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, value: Any, rcv: RcvFunction | None) -> None:
        self.proposed = True
        self.estimate = value
        self.rcv = rcv
        self._enter_round()

    def stop(self) -> None:
        """Instance decided; ignore all further events.

        The service retires the instance (its round entries go to the
        service's round log); this flag only stops a phase call already
        on the stack.
        """
        self.stopped = True

    # ------------------------------------------------------------------
    # Round progression
    # ------------------------------------------------------------------

    def _enter_round(self) -> None:
        svc = self.service
        self.r = r = self.r + 1
        self.round_entries.append(svc.engine.now)
        # The rotating coordinator (r mod n) + 1 of SystemConfig.coordinator.
        self.c = c = r % svc.n + 1
        if r > 1:
            # Phase 1: send the current estimate to the coordinator
            # (the coordinator sends to itself through the loopback so
            # that Phase 2 counts it like any other estimate).
            svc.transport.send(
                c,
                f"{svc.PREFIX}.est",
                body=(self.k, r, svc.pid, self.estimate, self.ts),
                size=svc.codec.wire_size(self.estimate) + CONSENSUS_HEADER_SIZE,
            )
        elif svc.pid == c:
            # Phase 2, round 1: the coordinator proposes its own estimate
            # (Algorithm 2 line 20: estimate_c <- estimate_p).
            self._send_proposal(r, self.estimate)
        self._try_phase2()
        self._try_phase3()

    # ------------------------------------------------------------------
    # Frame intake (called by the service dispatchers)
    # ------------------------------------------------------------------

    def on_estimate(self, r: int, sender: int, estimate: Any, ts: int) -> None:
        self.estimates.setdefault(r, {})[sender] = (estimate, ts)
        self._try_phase2()

    def on_proposal(self, r: int, value: Any) -> None:
        self.proposals[r] = value
        self._try_phase3()

    def on_ack(self, r: int, sender: int, positive: bool) -> None:
        target = self.acks if positive else self.nacks
        target.setdefault(r, set()).add(sender)
        self._try_phase4()

    def on_detector_change(self) -> None:
        self._try_phase3()

    def on_rcv_update(self) -> None:
        """A new message arrived upstairs; a pending rcv-gated Phase 3
        wait may now pass (wait-for-messages policy only)."""
        self._try_phase3()

    # ------------------------------------------------------------------
    # Phase 2 (coordinator): select the highest-timestamp estimate
    # ------------------------------------------------------------------

    def _try_phase2(self) -> None:
        svc = self.service
        if not self.proposed or self.stopped or svc.process.crashed:
            return
        r = self.r
        if r == 1 or svc.pid != self.c or r in self.proposal_sent:
            return  # round 1 proposes in _enter_round
        received = self.estimates.get(r)
        if received is None or len(received) < svc.majority:
            return
        # Select one estimate with the largest timestamp; ties broken by
        # the smallest sender id for determinism (the algorithm allows
        # any choice).
        best_sender = min(
            received,
            key=lambda q: (-received[q][1], q),
        )
        value = received[best_sender][0]
        self._send_proposal(r, value)

    def _send_proposal(self, r: int, value: Any) -> None:
        svc = self.service
        self.proposal_sent.add(r)
        self.proposed_value[r] = value
        svc.transport.send_all(
            f"{svc.PREFIX}.prop",
            body=(self.k, r, value),
            size=svc.codec.wire_size(value) + CONSENSUS_HEADER_SIZE,
        )

    # ------------------------------------------------------------------
    # Phase 3: adopt-and-ack, or nack (on refusal or suspicion)
    # ------------------------------------------------------------------

    def _try_phase3(self) -> None:
        svc = self.service
        if not self.proposed or self.stopped or svc.process.crashed:
            return
        r = self.r
        if r in self.phase3_done:
            return
        c = self.c
        if r in self.proposals:
            value = self.proposals[r]
            if svc._accept(self, value):
                # Adopt the coordinator's proposal (lines 26-28).
                self.estimate = value
                self.ts = r
                self._send_ack(r, c, positive=True)
            elif (
                svc.missing_policy == "wait"
                and not svc.detector.is_suspected(c)
            ):
                # Ablation policy: instead of nacking (Algorithm 2 line
                # 30), stall Phase 3 until the missing messages arrive
                # (re-triggered via on_rcv_update) or the coordinator is
                # suspected.
                svc._parked.add(self.k)
                return
            else:
                # The proposal was refused: the messages behind it are
                # missing (indirect variant only; line 30).
                self._send_ack(r, c, positive=False)
        elif svc.detector.is_suspected(c):
            # Suspected coordinator: nack and move on (lines 31-32).
            self._send_ack(r, c, positive=False)
        else:
            return
        svc._parked.discard(self.k)
        self.phase3_done.add(r)
        if svc.pid != c:
            self._enter_round()
        else:
            self._try_phase4()

    def _send_ack(self, r: int, c: int, positive: bool) -> None:
        svc = self.service
        svc.transport.send(
            c,
            f"{svc.PREFIX}.ack",
            body=(self.k, r, svc.pid, positive),
            size=ACK_SIZE,
        )

    # ------------------------------------------------------------------
    # Phase 4 (coordinator): majority of acks decides; one nack aborts
    # ------------------------------------------------------------------

    def _try_phase4(self) -> None:
        svc = self.service
        if not self.proposed or self.stopped or svc.process.crashed:
            return
        r = self.r
        if (
            svc.pid != self.c
            or r not in self.proposal_sent
            or r in self.phase4_done
        ):
            return
        if self.nacks.get(r):
            self.phase4_done.add(r)
            self._enter_round()
            return
        if len(self.acks.get(r, ())) >= svc.majority:
            self.phase4_done.add(r)
            svc._broadcast_decision(self.k, self.proposed_value[r])


class ChandraTouegConsensus(ConsensusService):
    """Original Chandra-Toueg ◇S consensus: resilience ``f < n/2``.

    Phase 3 adopts the coordinator's proposal unconditionally, which is
    exactly the behaviour that — when the values are message identifiers
    — allows the v-valent-but-not-v-stable configurations of Section 2.2.
    """

    NAME = "chandra-toueg"
    PREFIX = "ct"

    def __init__(
        self, *args: Any, missing_policy: str = "nack", **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        if missing_policy not in ("nack", "wait"):
            raise ConfigurationError(
                f"missing_policy must be 'nack' or 'wait', got {missing_policy!r}"
            )
        #: What Phase 3 does when rcv(v) fails: "nack" is Algorithm 2
        #: (line 30); "wait" is the ablation that stalls for the
        #: messages instead.  Irrelevant for the original algorithm,
        #: whose _accept never fails.
        self.missing_policy = missing_policy
        self.transport.register(f"{self.PREFIX}.est", self._on_est)
        self.transport.register(f"{self.PREFIX}.prop", self._on_prop)
        self.transport.register(f"{self.PREFIX}.ack", self._on_ack)

    @classmethod
    def resilience_bound(cls, config: SystemConfig) -> int:
        """Largest ``f`` with ``f < n/2``."""
        return (config.n - 1) // 2

    def _make_instance(self, k: int) -> CtInstance:
        return CtInstance(self, k)

    # The Phase-3 acceptance hook: the original algorithm always adopts.
    def _accept(self, instance: CtInstance, value: Any) -> bool:
        return True

    # ------------------------------------------------------------------
    # Frame dispatchers (no instance: decided, so dropped, or not created)
    # ------------------------------------------------------------------

    def _on_est(self, frame: Frame) -> None:
        k, r, sender, estimate, ts = frame.body
        instance = self._instances.get(k)
        if instance is None:
            if k in self.decided:
                return
            instance = self._instance(k)
        instance.on_estimate(r, sender, estimate, ts)

    def _on_prop(self, frame: Frame) -> None:
        k, r, value = frame.body
        instance = self._instances.get(k)
        if instance is None:
            if k in self.decided:
                return
            instance = self._instance(k)
        instance.on_proposal(r, value)

    def _on_ack(self, frame: Frame) -> None:
        k, r, sender, positive = frame.body
        instance = self._instances.get(k)
        if instance is None:
            if k in self.decided:
                return
            instance = self._instance(k)
        instance.on_ack(r, sender, positive)
