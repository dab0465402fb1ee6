"""Algorithm 2: the Chandra-Toueg based ◇S *indirect* consensus algorithm.

The adaptation of the original CT algorithm to message identifiers
(Section 3.2 of the paper).  Two modifications, both local to Phase 3:

1. **rcv-gated acks** (lines 25-30): on receiving the coordinator's
   proposal ``v``, a process checks ``rcv(v)``; only if all messages
   ``msgs(v)`` have been received does it adopt ``v`` and ack —
   otherwise it nacks, exactly as if it had suspected the coordinator.

2. **``estimate_c`` vs ``estimate_p``** (lines 2, 18, 20-21, 37): the
   value the coordinator *proposes* is bookkept separately from the
   value it has *adopted*.  A coordinator may select and forward an
   estimate whose messages it does not hold; its own estimate changes
   only through the same rcv-gated Phase 3 as everybody else's.  Without
   this separation, estimates held by no live process could survive
   across rounds (the scenario discussed under "The need for estimate_c
   and estimate_p" in the paper).

The structural consequence, proven in Section 3.2.3 and checked by the
trace checkers here: any v-valent configuration is v-stable, because a
decision requires ``⌈(n+1)/2⌉`` processes whose estimate equals ``v``,
each of which either started with ``v`` (and then holds ``msgs(v)``) or
passed the ``rcv`` gate.  Resilience is unchanged: ``f < n/2``.

Implementation note: the shared state machine in
:mod:`repro.consensus.chandra_toueg` already keeps the coordinator's
outgoing proposal (``proposed_value``) distinct from its adopted
``estimate`` and routes every adoption through the ``_accept`` hook, so
this class only has to supply the rcv gate.  Running the superclass *is*
the original algorithm; running this class is Algorithm 2.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.chandra_toueg import ChandraTouegConsensus, CtInstance


class CTIndirectConsensus(ChandraTouegConsensus):
    """Indirect consensus on message identifiers, CT style (Algorithm 2)."""

    NAME = "ct-indirect"
    PREFIX = "cti"
    REQUIRES_RCV = True
    # resilience_bound is inherited: the adaptation keeps ``f < n/2``.

    def _accept(self, instance: CtInstance, value: Any) -> bool:
        """Phase-3 gate (Algorithm 2 line 25): adopt only if ``rcv(v)``.

        A refusal sends a nack (line 30), which the coordinator treats
        exactly like a suspicion nack: the round aborts and the next
        coordinator selects among estimates that *are* backed by
        received messages at their holders.
        """
        return self.check_rcv(instance.rcv, value)
