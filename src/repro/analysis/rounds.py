"""Round analysis: how hard did consensus have to work?

Two per-instance numbers:

* **decision round** — the round in which the winning coordinator (CT)
  or deciding process (MR) reached its decision: the minimum, over the
  group, of rounds entered.  1 in failure-free, suspicion-free runs;
  higher when crashes, false suspicions, or rcv-gated nacks forced
  coordinator rotations.
* **churn round** — the maximum round any process *entered*.  Even in
  good runs non-coordinators advance a round or two past the decision
  before the decide flood reaches them (the algorithms are written that
  way: a process moves on right after Phase 3); the gap between churn
  and decision rounds measures that harmless overshoot.

Rounds are per-process state (not trace events), so this analysis reads
the round logs of the consensus services of a finished
:class:`~repro.stack.builder.System`, before or after
:meth:`~repro.stack.builder.System.close`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.stats import SummaryStats, summarize
from repro.stack.builder import System


@dataclass(frozen=True)
class RoundStatistics:
    """Decision-round and churn-round distributions across instances."""

    instances: int
    first_round_decisions: int
    decision_rounds: SummaryStats
    churn_rounds: SummaryStats

    @property
    def first_round_fraction(self) -> float:
        """Share of instances decided in round 1 (no rotation needed)."""
        if self.instances == 0:
            return 0.0
        return self.first_round_decisions / self.instances


def round_statistics(system: System) -> RoundStatistics:
    """Compute round statistics over every decided instance."""
    decision: dict[int, int] = {}
    churn: dict[int, int] = {}
    for consensus in system.consensuses.values():
        # An instance's rounds entered is the length of its slice of
        # the log's ``times``: the difference of consecutive ends.
        log = consensus.round_log
        start = 0
        for k, end in zip(log.instances, log.ends):
            rounds = end - start
            start = end
            decision[k] = min(decision.get(k, rounds), rounds)
            churn[k] = max(churn.get(k, 0), rounds)
    if not decision:
        empty = summarize([0.0])
        return RoundStatistics(
            instances=0,
            first_round_decisions=0,
            decision_rounds=empty,
            churn_rounds=empty,
        )
    decided = [float(r) for r in decision.values()]
    return RoundStatistics(
        instances=len(decided),
        first_round_decisions=sum(1 for r in decided if r <= 1.0),
        decision_rounds=summarize(decided),
        churn_rounds=summarize([float(r) for r in churn.values()]),
    )
