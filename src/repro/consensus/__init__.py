"""Consensus algorithms: Chandra-Toueg, Mostefaoui-Raynal, and their
indirect adaptations.

Four algorithms, all multi-instance (the atomic broadcast reduction runs
a sequence of independent consensus executions, distinguished by a
serial number ``k``):

* :class:`~repro.consensus.chandra_toueg.ChandraTouegConsensus` — the
  original rotating-coordinator ◇S algorithm of [2]; resilience
  ``f < n/2``.
* :class:`~repro.consensus.ct_indirect.CTIndirectConsensus` —
  Algorithm 2 of the paper: acks are gated by the ``rcv`` predicate and
  the coordinator's proposal (``estimate_c``) is kept separate from its
  own estimate (``estimate_p``).  Resilience unchanged: ``f < n/2``.
* :class:`~repro.consensus.mostefaoui_raynal.MostefaouiRaynalConsensus`
  — the original quorum-based ◇S algorithm of [7]; resilience
  ``f < n/2``, decisions in two communication steps in good rounds.
* :class:`~repro.consensus.mr_indirect.MRIndirectConsensus` —
  Algorithm 3 of the paper: coordinator values are filtered through
  ``rcv``, Phase 2 waits for ``⌈(2n+1)/3⌉`` echoes, and a valid value is
  adopted only if ``rcv`` holds or it was seen ``⌈(n+1)/3⌉`` times.
  Resilience **reduced** to ``f < n/3`` — the paper's central negative
  result.

Values are opaque to the algorithms; a :class:`~repro.consensus.base.
ValueCodec` supplies their wire size (identifier sets stay small, full
message sets grow with the payload — the paper's performance story) and
their projection to identifier sets for tracing.
"""

from repro.consensus.base import (
    ConsensusService,
    ID_SET_CODEC,
    MESSAGE_SET_CODEC,
    ValueCodec,
)
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.consensus.mostefaoui_raynal import MostefaouiRaynalConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus

__all__ = [
    "ChandraTouegConsensus",
    "ConsensusService",
    "CTIndirectConsensus",
    "ID_SET_CODEC",
    "MESSAGE_SET_CODEC",
    "MostefaouiRaynalConsensus",
    "MRIndirectConsensus",
    "ValueCodec",
]
