"""Trace-based property checkers.

Every formal property the paper states — for reliable broadcast, uniform
reliable broadcast, (indirect) consensus, and atomic broadcast — is
implemented here as a predicate over the protocol-event trace of a
finished run.  Tests (including the hypothesis property-based ones)
drive simulations and then hand the trace to these checkers; a violation
raises :class:`~repro.core.exceptions.ProtocolViolationError` with the
offending events, so a failing run prints a usable counterexample.
The atomic broadcast checker is a streaming fold: it can also ride a
running trace as a sink, which is how every ``run_experiment`` run is
checked in either trace mode.

Caveat on liveness: traces are finite, so the "eventually" properties
(Validity, Agreement, Termination) are checked against *quiescent* runs
— runs driven until the system had ample simulated time to finish.  The
scenario tests that demonstrate violations (e.g. the Section 2.2
validity violation) rely on exactly this: in the faulty stack the
blocked delivery never happens no matter how long the run, and the
checker reports it.
"""

from repro.checkers.abcast import AbcastChecker, check_abcast
from repro.checkers.broadcast import BroadcastChecker, check_broadcast
from repro.checkers.consensus import ConsensusChecker, check_consensus
from repro.checkers.shard import ShardChecker, check_shards

__all__ = [
    "AbcastChecker",
    "BroadcastChecker",
    "ConsensusChecker",
    "ShardChecker",
    "check_abcast",
    "check_broadcast",
    "check_consensus",
    "check_shards",
]
