"""Sharded (partitioned) atomic broadcast service.

The paper stops at one abcast group of n≤7 processes.  This package
scales the *same registry-built stacks* horizontally: ``k`` independent
groups share one simulation clock behind a key-hashed
:class:`~repro.shard.router.Router` that applies admission control
(bounded in-flight per shard, shed-or-delay on overload), with
cross-shard operations running through a deterministic two-group commit
(:class:`~repro.shard.commit.TwoGroupCommit`) layered on the groups'
total orders — no protocol layer is modified.

Entry points:

* :func:`~repro.shard.service.build_sharded_system` /
  :class:`~repro.shard.service.ShardSpec` — compose k groups + router
  + commit layer on one engine.
* :func:`~repro.shard.router.shard_for` — the stable (process- and
  run-independent) key→shard hash.
* :class:`~repro.shard.sweep.ShardSweepSpec` /
  :func:`~repro.shard.sweep.run_shard_sweep` — offered-load × shard
  grids producing per-shard :class:`~repro.harness.results.ResultSet`
  rows.
* :class:`~repro.shard.bank.BankMachine` /
  :class:`~repro.shard.bank.ShardedBank` — the worked replicated-state
  application (``examples/replicated_bank.py``).

Safety lives in :mod:`repro.checkers.shard`: per-key total order across
groups and two-group-commit atomicity, checked from the per-group
traces alone.
"""

from repro.shard.bank import BankMachine, ShardedBank, attach_machines
from repro.shard.commit import TwoGroupCommit
from repro.shard.ops import KeyOp, Transfer, TxAbort, TxCommit, TxPrepare
from repro.shard.router import Router, shard_for
from repro.shard.service import ShardSpec, ShardedSystem, build_sharded_system
from repro.shard.sweep import ShardSweepSpec, run_shard_sweep

__all__ = [
    "BankMachine",
    "KeyOp",
    "Router",
    "ShardSpec",
    "ShardSweepSpec",
    "ShardedBank",
    "ShardedSystem",
    "Transfer",
    "TwoGroupCommit",
    "TxAbort",
    "TxCommit",
    "TxPrepare",
    "attach_machines",
    "build_sharded_system",
    "run_shard_sweep",
    "shard_for",
]
