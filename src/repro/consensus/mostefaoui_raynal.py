"""The Mostefaoui-Raynal ◇S consensus algorithm (original form).

The quorum-based algorithm of [7], recalled in Section 3.3.1 of the
paper.  Each round has two phases:

* **Phase 1** — the round's coordinator sends its estimate to all; every
  other process forwards to all either the value it received from the
  coordinator, or the invalid value ⊥ if it suspects the coordinator.
  (The coordinator's own send doubles as its echo.)
* **Phase 2** — every process waits for echoes from ``n - f`` processes.
  If *all* of them carry the same valid value ``v``, the process decides
  ``v`` and R-broadcasts the decision; otherwise, if at least one echo
  is valid, it adopts that value and proceeds to the next round.

In failure- and suspicion-free rounds every process decides within two
communication steps.  Resilience ``f < n/2``.

Uniform agreement hinges on *unconditional adoption*: a process that
receives even a single valid echo must adopt it.  This is precisely what
cannot be kept when the values are message identifiers — Section 3.3.2
of the paper exhibits two indistinguishable executions that force any
fix to either break agreement or break No loss, and the repair
(Algorithm 3, :mod:`repro.consensus.mr_indirect`) costs resilience.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.base import CONSENSUS_HEADER_SIZE, ConsensusService
from repro.core.config import SystemConfig
from repro.core.exceptions import ProtocolViolationError
from repro.core.rcv import RcvFunction
from repro.net.frame import Frame


class Bottom:
    """The invalid value ⊥ sent in place of a missing coordinator value."""

    _instance: "Bottom | None" = None

    def __new__(cls) -> "Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "⊥"


#: The singleton invalid value.
BOTTOM = Bottom()

#: Wire size of a ⊥ echo body.
BOTTOM_SIZE = 4


class MrInstance:
    """State machine of one Mostefaoui-Raynal instance at one process."""

    __slots__ = (
        "service",
        "k",
        "proposed",
        "stopped",
        "estimate",
        "rcv",
        "r",
        "c",
        "echoes",
        "echoed",
        "evaluated",
        "round_entries",
    )

    def __init__(self, service: "MostefaouiRaynalConsensus", k: int) -> None:
        self.service = service
        self.k = k
        self.proposed = False
        self.stopped = False
        self.estimate: Any = None
        self.rcv: RcvFunction | None = None
        self.r = 0
        #: Coordinator of round ``r``, fixed when the round is entered.
        self.c = 0
        #: round -> {sender: value-or-BOTTOM}
        self.echoes: dict[int, dict[int, Any]] = {}
        self.echoed: set[int] = set()
        self.evaluated: set[int] = set()
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
        """Instance decided; the service retires it (its round entries
        go to the service's round log).  The flag only stops a phase
        call already on the stack."""
        self.stopped = True

    def _enter_round(self) -> None:
        svc = self.service
        self.r = r = self.r + 1
        self.round_entries.append(svc.engine.now)
        # The rotating coordinator (r mod n) + 1 of SystemConfig.coordinator.
        self.c = r % svc.n + 1
        if svc.pid == self.c:
            # Phase 1, coordinator: est_from_c <- estimate_p, send to all
            # (Algorithm 3 lines 10-12); this send is also its echo.
            self._send_echo(r, self.estimate)
        else:
            self._try_phase1()
        self._try_phase2()

    # ------------------------------------------------------------------
    # Frame / detector intake
    # ------------------------------------------------------------------

    def on_echo(self, r: int, sender: int, value: Any) -> None:
        self.echoes.setdefault(r, {})[sender] = value
        self._try_phase1()
        self._try_phase2()

    def on_detector_change(self) -> None:
        self._try_phase1()

    # ------------------------------------------------------------------
    # Phase 1 (non-coordinator): echo the coordinator's value or ⊥
    # ------------------------------------------------------------------

    def _try_phase1(self) -> None:
        svc = self.service
        if not self.proposed or self.stopped or svc.process.crashed:
            return
        r = self.r
        if r in self.echoed:
            return
        c = self.c
        if svc.pid == c:
            return  # echoed on round entry
        round_echoes = self.echoes.get(r, ())
        if c in round_echoes:
            value = round_echoes[c]
            # The filtering hook: the original algorithm forwards the
            # coordinator's value as is; the indirect adaptation replaces
            # it with ⊥ unless rcv holds (Algorithm 3 lines 16-19).
            self._send_echo(r, svc._filter_coordinator_value(self, value))
        elif svc.detector.is_suspected(c):
            self._send_echo(r, BOTTOM)

    def _send_echo(self, r: int, value: Any) -> None:
        svc = self.service
        self.echoed.add(r)
        size = (
            BOTTOM_SIZE
            if value is BOTTOM
            else svc.codec.wire_size(value) + CONSENSUS_HEADER_SIZE
        )
        svc.transport.send_all(
            f"{svc.PREFIX}.echo",
            body=(self.k, r, svc.pid, value),
            size=size,
        )

    # ------------------------------------------------------------------
    # Phase 2: evaluate the first quorum of echoes
    # ------------------------------------------------------------------

    def _try_phase2(self) -> None:
        svc = self.service
        if not self.proposed or self.stopped or svc.process.crashed:
            return
        r = self.r
        if r not in self.echoed or r in self.evaluated:
            return
        received = self.echoes.get(r)
        if received is None or len(received) < svc.echo_quorum:
            return
        self.evaluated.add(r)
        values = list(received.values())
        valid = [v for v in values if v is not BOTTOM]
        if valid:
            # All valid echoes of a round carry the coordinator's single
            # value (crash faults only — no equivocation).
            v = valid[0]
            if valid.count(v) != len(valid):
                raise ProtocolViolationError(
                    "Consensus Uniform agreement",
                    f"p{svc.pid}: distinct valid echoes in round {r} of "
                    f"instance {self.k}",
                )
            if len(valid) == len(values):
                # rec_p = {v}: decide (Algorithm 3 lines 24-26).
                self.estimate = v
                svc._broadcast_decision(self.k, v)
                return
            # rec_p = {v, ⊥}: adoption is where original and indirect
            # diverge (Algorithm 3 lines 27-29).
            if svc._may_adopt(self, v, count=len(valid)):
                self.estimate = v
        self._enter_round()


class MostefaouiRaynalConsensus(ConsensusService):
    """Original Mostefaoui-Raynal ◇S consensus: resilience ``f < n/2``."""

    NAME = "mostefaoui-raynal"
    PREFIX = "mr"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.echo_quorum = self._phase2_quorum()
        self.transport.register(f"{self.PREFIX}.echo", self._on_echo)

    @classmethod
    def resilience_bound(cls, config: SystemConfig) -> int:
        """Largest ``f`` with ``f < n/2``."""
        return (config.n - 1) // 2

    def _make_instance(self, k: int) -> MrInstance:
        return MrInstance(self, k)

    def _phase2_quorum(self) -> int:
        """Echoes awaited in Phase 2: ``n - f`` in the original algorithm."""
        return self.config.n - self.config.f

    def _filter_coordinator_value(self, instance: MrInstance, value: Any) -> Any:
        """Original algorithm: forward the coordinator's value untouched."""
        return value

    def _may_adopt(self, instance: MrInstance, value: Any, count: int) -> bool:
        """Original algorithm: any valid value is adopted unconditionally.

        This unconditional adoption is required for Uniform agreement in
        the original algorithm — and is exactly what breaks No loss when
        values are message identifiers (Section 3.3.2).
        """
        return True

    def _on_echo(self, frame: Frame) -> None:
        k, r, sender, value = frame.body
        instance = self._instances.get(k)
        if instance is None:
            if k in self.decided:
                return
            instance = self._instance(k)
        instance.on_echo(r, sender, value)
