"""The sharded replicated bank — the worked application.

``examples/replicated_bank.py`` (run by
``tests/examples/test_examples_smoke.py``) drives this module: every replica of every shard runs a :class:`BankMachine`
over its group's adelivery stream, so all replicas of a shard hold
identical balances; :class:`ShardedBank` is the client facade that
routes same-shard transfers as single totally-ordered operations and
cross-shard transfers through the two-group commit.

Determinism is the whole point: a machine's state is a pure function of
its group's delivery sequence, overdrafts are *refused* (not errored)
identically everywhere, and prepare votes are identical at every
correct replica — which is what lets the commit coordinator act on the
first vote it hears per leg.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.exceptions import ConfigurationError
from repro.core.message import make_payload
from repro.shard.ops import KeyOp, Transfer, TxAbort, TxCommit, TxPrepare
from repro.shard.router import shard_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.message import AppMessage
    from repro.shard.service import ShardedSystem
    from repro.sim.process import SimProcess


class BankMachine:
    """One replica's deterministic bank state for one shard.

    Args:
        balances: Initial balance per account key owned by this shard.

    Attributes:
        balances: Current balance per key.
        applied: Operations applied (including refused ones).
        refused: Overdraft-refused operations/votes.
    """

    def __init__(self, balances: Mapping[str, int]) -> None:
        self.balances = dict(balances)
        #: txid -> (key, action, amount) reservations awaiting outcome.
        self.reserved: dict[str, tuple[str, str, int]] = {}
        self.applied = 0
        self.refused = 0

    def available(self, key: str) -> int:
        """Balance minus funds reserved by in-doubt debit legs."""
        held = sum(
            amount
            for rkey, action, amount in self.reserved.values()
            if rkey == key and action == "debit"
        )
        return self.balances.get(key, 0) - held

    def on_deliver(self, content: object) -> bool | None:
        """Apply one adelivered operation; returns the vote for prepares."""
        self.applied += 1
        if isinstance(content, KeyOp):
            self._key_op(content)
        elif isinstance(content, Transfer):
            self._transfer(content)
        elif isinstance(content, TxPrepare):
            return self._prepare(content)
        elif isinstance(content, TxCommit):
            self._finalize(content.txid, commit=True)
        elif isinstance(content, TxAbort):
            self._finalize(content.txid, commit=False)
        else:
            self.applied -= 1  # not a bank op; ignore
        return None

    def _key_op(self, op: KeyOp) -> None:
        if op.action == "deposit":
            self.balances[op.key] = self.balances.get(op.key, 0) + op.amount
        elif op.action == "withdraw":
            if self.available(op.key) >= op.amount:
                self.balances[op.key] -= op.amount
            else:
                self.refused += 1
        else:
            raise ConfigurationError(f"unknown bank action {op.action!r}")

    def _transfer(self, op: Transfer) -> None:
        if self.available(op.src) >= op.amount:
            self.balances[op.src] -= op.amount
            self.balances[op.dst] = self.balances.get(op.dst, 0) + op.amount
        else:
            self.refused += 1

    def _prepare(self, op: TxPrepare) -> bool:
        if op.action == "credit":
            self.reserved[op.txid] = (op.key, "credit", op.amount)
            return True
        if op.action != "debit":
            raise ConfigurationError(f"unknown prepare action {op.action!r}")
        if self.available(op.key) >= op.amount:
            self.reserved[op.txid] = (op.key, "debit", op.amount)
            return True
        self.refused += 1
        return False

    def _finalize(self, txid: str, commit: bool) -> None:
        held = self.reserved.pop(txid, None)
        if held is None:
            return  # no-vote leg (refused debit) or duplicate outcome
        key, action, amount = held
        if not commit:
            return
        if action == "debit":
            self.balances[key] -= amount
        else:
            self.balances[key] = self.balances.get(key, 0) + amount

    def total(self) -> int:
        """Sum of balances (reservations are not yet moved funds)."""
        return sum(self.balances.values())


def attach_machines(
    service: "ShardedSystem",
    balances_for: Callable[[int], Mapping[str, int]],
    vote_latency: float = 100e-6,
) -> dict[tuple[int, object], BankMachine]:
    """Run a :class:`BankMachine` at every replica of every shard.

    Each machine consumes its group's adelivery stream; prepare votes
    are reported to the commit coordinator through the *replica's own*
    crash-guarded timer after ``vote_latency`` — a crashed replica's
    vote never arrives, exactly like a lost message.

    Args:
        service: The built sharded system.
        balances_for: shard id -> initial balances of the keys it owns.

    Returns:
        The machines, keyed by ``(shard, pid)``.
    """
    machines: dict[tuple[int, object], BankMachine] = {}
    for shard, group in enumerate(service.groups):
        initial = balances_for(shard)
        for pid in group.config.processes:
            machine = machines[(shard, pid)] = BankMachine(initial)
            group.abcasts[pid].on_adeliver(partial(
                _apply_and_vote, machine, group.processes[pid],
                service.commit.report_vote, shard, vote_latency,
            ))
    return machines


def _apply_and_vote(
    machine: BankMachine,
    process: "SimProcess",
    report_vote: Callable[..., None],
    shard: int,
    vote_latency: float,
    message: "AppMessage",
) -> None:
    """One replica's adelivery: apply it to ``machine``; a prepare's
    vote reaches ``report_vote`` after ``vote_latency`` through
    ``process``'s crash-guarded timer."""
    content = message.payload.content
    vote = machine.on_deliver(content)
    if vote is not None:
        process.schedule(vote_latency, report_vote, shard, content.txid, vote)


class ShardedBank:
    """Client facade: route transfers, mint transaction ids.

    Args:
        service: The built sharded system.
        payload_size: Wire size modeled for data-plane operations.
    """

    def __init__(self, service: "ShardedSystem", payload_size: int = 64) -> None:
        self.service = service
        self.payload_size = payload_size
        self._next_tx = 0
        self.cross_shard = 0
        self.same_shard = 0

    def shard_of(self, key: str) -> int:
        return self.service.router.shard_of(key)

    def deposit(self, key: str, amount: int) -> bool:
        """Submit a deposit through admission control."""
        return self.service.router.submit(
            key, make_payload(self.payload_size, KeyOp(key, "deposit", amount))
        )

    def withdraw(self, key: str, amount: int) -> bool:
        """Submit a withdrawal through admission control."""
        return self.service.router.submit(
            key, make_payload(self.payload_size, KeyOp(key, "withdraw", amount))
        )

    def transfer(self, src: str, dst: str, amount: int) -> str | None:
        """Move funds; two-group commit iff the keys span two shards.

        Returns the transaction id for cross-shard transfers, ``None``
        for same-shard ones (a single totally-ordered operation).
        """
        s, d = self.shard_of(src), self.shard_of(dst)
        if s == d:
            self.same_shard += 1
            self.service.router.submit(
                src, make_payload(self.payload_size, Transfer(src, dst, amount))
            )
            return None
        self.cross_shard += 1
        txid = f"tx{self._next_tx}"
        self._next_tx += 1
        self.service.commit.submit({
            s: TxPrepare(txid, src, "debit", amount),
            d: TxPrepare(txid, dst, "credit", amount),
        })
        return txid


def spread_accounts(names: list[str], shards: int) -> dict[int, dict[str, int]]:
    """Partition account names by the stable hash (100 units each)."""
    by_shard: dict[int, dict[str, int]] = {i: {} for i in range(shards)}
    for name in names:
        by_shard[shard_for(name, shards)][name] = 100
    return by_shard
