"""Batch-size analysis: messages ordered per consensus execution.

Algorithm 1 runs consensus on *sets* of unordered identifiers, so under
load each execution orders several messages at once.  This amortisation
is why the latency/throughput curves of the paper bend rather than hit
a wall at the single-instance rate.  The statistics here make it
visible (and the batch-cap ablation measurable).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.stats import SummaryStats, summarize
from repro.sim.trace import Trace


@dataclass(frozen=True)
class BatchStatistics:
    """Distribution of decided batch sizes across instances."""

    instances: int
    messages: int
    sizes: SummaryStats

    @property
    def amortisation(self) -> float:
        """Average messages ordered per consensus execution."""
        if self.instances == 0:
            return 0.0
        return self.messages / self.instances


def batch_statistics(trace: Trace) -> BatchStatistics:
    """Compute batch statistics from the decided instances of ``trace``."""
    sizes = [
        float(len(first.value)) for first in trace.first_decisions().values()
    ]
    return BatchStatistics(
        instances=len(sizes),
        messages=int(sum(sizes)),
        sizes=summarize(sizes or [0.0]),
    )
