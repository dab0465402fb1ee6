"""Algorithm 3: the Mostefaoui-Raynal based ◇S *indirect* consensus
algorithm.

The adaptation of Section 3.3.3 of the paper, whose resilience drops
from ``f < n/2`` to ``f < n/3``.  Three modifications relative to the
original algorithm (bold line numbers in the paper's Algorithm 3):

1. **Phase-1 filtering** (lines 16-19): a process forwards the
   coordinator's value ``v`` only if ``rcv(v)`` holds; otherwise it
   echoes ⊥.  Consequently a valid echo from ``q`` certifies that ``q``
   held ``msgs(v)`` when it echoed.

2. **Phase-2 quorum** (lines 21-22): every process waits for
   ``⌈(2n+1)/3⌉`` echoes instead of ``n - f``.  Any two such quorums
   intersect in at least ``⌈(n+1)/3⌉ ≥ f + 1`` processes (Figure 2 and
   :func:`~repro.harness.figures.figure2_table`), which is what makes
   condition 3 sound.

3. **Conditional adoption** (lines 27-29): on ``rec_p = {v, ⊥}`` the
   process adopts ``v`` only if ``rcv(v)`` holds **or** ``v`` was
   received from at least ``⌈(n+1)/3⌉`` processes — i.e. from at least
   one correct process that held ``msgs(v)``.

Why agreement still holds (Section 3.3.4): if some process decides ``v``
in round ``r`` it saw ``⌈(2n+1)/3⌉`` echoes equal to ``v``; every other
process's quorum overlaps that set in at least ``⌈(n+1)/3⌉`` members, so
every process passes the count test of condition 3 and adopts ``v``.

Why No loss holds: a v-valent configuration requires ``⌈(2n+1)/3⌉``
processes whose estimate is ``v``; at least ``f + 1`` of them acquired
``v`` through propose or an rcv-gated path, so ``f + 1`` processes hold
``msgs(v)`` — the configuration is v-stable.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.mostefaoui_raynal import (
    BOTTOM,
    MostefaouiRaynalConsensus,
    MrInstance,
)
from repro.core.config import SystemConfig


class MRIndirectConsensus(MostefaouiRaynalConsensus):
    """Indirect consensus on message identifiers, MR style (Algorithm 3)."""

    NAME = "mr-indirect"
    PREFIX = "mri"
    REQUIRES_RCV = True

    @classmethod
    def resilience_bound(cls, config: SystemConfig) -> int:
        """Largest ``f`` with ``f < n/3`` — the paper's resilience cost."""
        return (config.n - 1) // 3

    def _phase2_quorum(self) -> int:
        """Wait for ``⌈(2n+1)/3⌉`` echoes (Algorithm 3 line 22)."""
        return self.config.two_thirds_quorum

    def _filter_coordinator_value(self, instance: MrInstance, value: Any) -> Any:
        """Echo the coordinator's value only when ``rcv`` certifies it
        (Algorithm 3 lines 16-19); otherwise echo ⊥."""
        if self.check_rcv(instance.rcv, value):
            return value
        return BOTTOM

    def _may_adopt(self, instance: MrInstance, value: Any, count: int) -> bool:
        """Adopt ``v`` iff ``rcv(v)`` or ``v`` was seen ``⌈(n+1)/3⌉`` times
        (Algorithm 3 line 28).

        The count branch is sound because ``⌈(n+1)/3⌉ ≥ f + 1`` under
        ``f < n/3``: at least one of the echoing processes is correct
        and, by the Phase-1 filter, held ``msgs(v)`` when it echoed.
        """
        if count >= self.config.third_quorum:
            return True
        return self.check_rcv(instance.rcv, value)
