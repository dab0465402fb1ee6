"""Checkers for (indirect) consensus.

Properties (Section 2.3 of the paper):

* **Termination** — every correct process that proposed eventually
  decides (checked on quiescent traces, per instance).
* **Uniform integrity** — every process decides at most once per instance.
* **Uniform agreement** — no two processes decide differently.
* **Uniform validity** — a decided value was proposed by some process.
* **No loss** (indirect consensus only) — if a process decides ``v`` at
  time ``t``, one *correct* process had received ``msgs(v)`` at ``t``.
* **v-stability** (the stronger structural obligation of Section 3.1) —
  at the first decision time, ``f + 1`` processes (crashed ones
  excluded) held ``msgs(v)``.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.core.config import SystemConfig
from repro.core.events import DecideEvent, ProposeEvent
from repro.core.exceptions import ProtocolViolationError
from repro.sim.trace import Trace


class ConsensusChecker:
    """Evaluates the consensus properties on a quiescent trace."""

    def __init__(self, trace: Trace, config: SystemConfig) -> None:
        self.trace = trace
        self.config = config
        self.correct = trace.correct_processes(config.processes)
        # Grouped by instance in one pass over the trace's rows, not one
        # pass per instance: per instance, the deciders and their values
        # in recorded order, and the same of the proposers, as flat
        # ``[process, value, process, value, ...]`` lists (no object per
        # event: pids are small ints and the trace shares equal values).
        self._decides: dict[int, list] = defaultdict(list)
        self._proposals: dict[int, list] = defaultdict(list)
        for cls, _, process, value, k in trace.rows(DecideEvent, ProposeEvent):
            group = (self._decides if cls is DecideEvent else self._proposals)[k]
            group.append(process)
            group.append(value)
        self._first = trace.first_decisions()

    def check_uniform_integrity(self, instance: int) -> None:
        counts = Counter(self._decides.get(instance, [])[::2])
        for process, count in counts.items():
            if count > 1:
                raise ProtocolViolationError(
                    "Consensus Uniform integrity",
                    f"p{process} decided instance {instance} {count} times",
                )

    def check_uniform_agreement(self, instance: int) -> None:
        decisions = set(self._decides.get(instance, [])[1::2])
        if len(decisions) > 1:
            raise ProtocolViolationError(
                "Consensus Uniform agreement",
                f"instance {instance} decided {len(decisions)} different "
                f"values: {sorted(map(sorted, decisions))}",
            )

    def check_uniform_validity(self, instance: int) -> None:
        proposals = set(self._proposals.get(instance, [])[1::2])
        for value in self._decides.get(instance, [])[1::2]:
            if value not in proposals:
                raise ProtocolViolationError(
                    "Consensus Uniform validity",
                    f"instance {instance} decided {sorted(value)} "
                    f"which no process proposed",
                )

    def check_termination(self, instance: int) -> None:
        """Every correct proposer of ``instance`` decided (quiescent trace)."""
        proposers = set(self._proposals.get(instance, [])[::2])
        deciders = set(self._decides.get(instance, [])[::2])
        for process in proposers & self.correct:
            if process not in deciders:
                raise ProtocolViolationError(
                    "Consensus Termination",
                    f"correct p{process} proposed in instance {instance} "
                    f"but never decided",
                )

    def check_no_loss(self, instance: int) -> None:
        """One *correct* process held ``msgs(v)`` at the first decision time."""
        first = self._first.get(instance)
        if first is None:
            return
        holders = self.trace.holders_at(first.value, first.time)
        if not holders & self.correct:
            raise ProtocolViolationError(
                "No loss",
                f"instance {instance} decided {sorted(first.value)} at "
                f"t={first.time:.6f} but no correct process held the "
                f"messages (holders: {sorted(holders)})",
            )

    def check_v_stability(self, instance: int) -> None:
        """``f + 1`` distinct processes had received ``msgs(v)`` by the
        first decision time.

        Crashed-since holders count (``include_crashed=True``): the
        algorithm can only guarantee that the ``⌈(n+1)/2⌉ ≥ f + 1``
        ackers behind a decision each held ``msgs(v)`` *when they
        acked*; a holder may legitimately crash between its ack and the
        decision landing, and no protocol can retroactively prevent
        that.  Stability still follows — at most ``f`` of the ``f + 1``
        holders ever crash, so one of them is correct, which is exactly
        what :meth:`check_no_loss` asserts with live-holder semantics.
        (Requiring ``f + 1`` *live* holders at decision time would
        double-count a crash: once against the holder set and once
        against the ``f`` budget.)
        """
        first = self._first.get(instance)
        if first is None:
            return
        holders = self.trace.holders_at(
            first.value, first.time, include_crashed=True
        )
        needed = self.config.stability_threshold()
        if len(holders) < needed:
            raise ProtocolViolationError(
                "v-stability",
                f"instance {instance}: only {len(holders)} processes held "
                f"msgs(v) at decision time t={first.time:.6f}, "
                f"need f+1={needed}",
            )

    def check_all(self, no_loss: bool = False, v_stability: bool = False) -> None:
        """Run every applicable check on every decided instance."""
        for instance in self._first:
            self.check_uniform_integrity(instance)
            self.check_uniform_agreement(instance)
            self.check_uniform_validity(instance)
            self.check_termination(instance)
            if no_loss:
                self.check_no_loss(instance)
            if v_stability:
                self.check_v_stability(instance)


def check_consensus(
    trace: Trace,
    config: SystemConfig,
    no_loss: bool = False,
    v_stability: bool = False,
) -> None:
    """Convenience wrapper: run all consensus checks on ``trace``."""
    ConsensusChecker(trace, config).check_all(
        no_loss=no_loss, v_stability=v_stability
    )
