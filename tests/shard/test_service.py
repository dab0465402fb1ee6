"""The composed sharded service: build, route, commit, crash, check.

Key facts baked into these tests (pinned in test_router.py): at two
shards the letters A and B hash to shard 1, C and D to shard 0 — so
(A, B) is a same-shard pair and (A, C) a cross-shard pair.
"""

import dataclasses

import pytest

from repro import CrashSchedule, StackSpec, check_shards
from repro.core.exceptions import ConfigurationError
from repro.shard import ShardSpec, build_sharded_system
from repro.shard.bank import (
    BankMachine,
    ShardedBank,
    attach_machines,
    spread_accounts,
)
from repro.shard.ops import TxPrepare
from repro.sim.trace import Trace
from repro.stack.layers import WORKLOADS


def _spec(shards=2, n=2, seed=5, **knobs):
    return ShardSpec(
        stack=StackSpec(
            n=n, abcast="indirect", consensus="ct-indirect",
            network="constant", seed=seed,
        ),
        shards=shards,
        **knobs,
    )


def _bank(spec, crashes=None, balances=None):
    service = build_sharded_system(spec, crashes=crashes)
    accounts = balances or spread_accounts(list("ABCD"), spec.shards)
    machines = attach_machines(service, lambda shard: accounts[shard])
    return service, machines, ShardedBank(service)


class TestBuild:
    def test_groups_share_one_engine_and_fork_rngs(self):
        service = build_sharded_system(_spec(shards=3))
        assert len(service.groups) == 3
        assert all(g.engine is service.engine for g in service.groups)
        # Forked registries: same seed, independent streams per shard.
        assert len({id(g.rngs) for g in service.groups}) == 3
        assert service.router.shards == 3
        assert service.commit.router is service.router
        assert all(isinstance(g.trace, Trace) for g in service.groups)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError, match="shards"):
            _spec(shards=0)
        with pytest.raises(ConfigurationError, match="admission"):
            _spec(admission="tail-drop")
        with pytest.raises(ConfigurationError, match="router_capacity"):
            _spec(router_capacity=0)

    def test_crash_schedule_must_name_a_valid_shard(self):
        with pytest.raises(ConfigurationError, match="shard 7"):
            build_sharded_system(
                _spec(), crashes={7: CrashSchedule.single(0, 0.01)}
            )

    def test_traces_length_must_match_shards(self):
        with pytest.raises(ConfigurationError, match="traces"):
            build_sharded_system(_spec(shards=2), traces=[Trace()])


class TestSameShard:
    def test_transfer_rides_one_total_order(self):
        service, machines, bank = _bank(_spec())
        assert bank.transfer("A", "B", 30) is None  # both on shard 1
        assert bank.same_shard == 1 and bank.cross_shard == 0
        assert service.run_until_quiescent(timeout=1.0)
        service.check()
        for pid in service.groups[1].correct_processes():
            machine = machines[(1, pid)]
            assert machine.balances == {"A": 70, "B": 130}

    def test_overdraft_refused_identically_everywhere(self):
        service, machines, bank = _bank(_spec())
        bank.withdraw("C", 10_000)
        bank.deposit("C", 7)
        assert service.run_until_quiescent(timeout=1.0)
        service.check()
        for pid in service.groups[0].correct_processes():
            machine = machines[(0, pid)]
            assert machine.balances["C"] == 107
            assert machine.refused == 1


class TestTwoGroupCommit:
    def test_cross_shard_transfer_commits(self):
        service, machines, bank = _bank(_spec())
        txid = bank.transfer("A", "C", 40)  # shard 1 -> shard 0
        assert txid is not None and bank.cross_shard == 1
        assert service.run_until_quiescent(timeout=1.0)
        service.check()
        assert service.commit.outcome_of(txid) == "commit"
        assert service.commit.committed == 1
        for shard, key, balance in ((1, "A", 60), (0, "C", 140)):
            for pid in service.groups[shard].correct_processes():
                machine = machines[(shard, pid)]
                assert machine.balances[key] == balance
                assert not machine.reserved

    def test_insufficient_funds_aborts_both_legs(self):
        service, machines, bank = _bank(_spec())
        txid = bank.transfer("A", "C", 10_000)
        assert service.run_until_quiescent(timeout=1.0)
        service.check()
        assert service.commit.outcome_of(txid) == "abort"
        assert service.commit.aborted == 1
        # Neither leg moved funds; the credit reservation rolled back.
        for shard in (0, 1):
            for pid in service.groups[shard].correct_processes():
                machine = machines[(shard, pid)]
                assert all(b == 100 for b in machine.balances.values())
                assert not machine.reserved

    def test_submit_validates_legs(self):
        service = build_sharded_system(_spec())
        commit = service.commit
        with pytest.raises(ConfigurationError, match="at least one leg"):
            commit.submit({})
        with pytest.raises(ConfigurationError, match="disagree on txid"):
            commit.submit({
                0: TxPrepare("t1", "C", "debit", 1),
                1: TxPrepare("t2", "A", "credit", 1),
            })
        with pytest.raises(ConfigurationError, match="hashes to shard"):
            commit.submit({0: TxPrepare("t3", "A", "debit", 1)})
        commit.submit({
            0: TxPrepare("t4", "C", "debit", 1),
            1: TxPrepare("t4", "A", "credit", 1),
        })
        with pytest.raises(ConfigurationError, match="already submitted"):
            commit.submit({0: TxPrepare("t4", "C", "debit", 1)})


class TestCrashTolerance:
    def test_commits_survive_coordinator_crash(self):
        # Crash shard 0's p1 — its group's Chandra-Toueg round-1
        # coordinator — while cross-shard transfers are in flight
        # (t=200 µs: after the prepares were forwarded, before any
        # outcome is ordered); n=3 tolerates f=1, so the transaction
        # still commits and every checker stays clean.
        service, machines, bank = _bank(
            _spec(n=3),
            crashes={0: CrashSchedule.single(1, 2e-4)},
        )
        t1 = bank.transfer("A", "C", 10)
        t2 = bank.transfer("D", "B", 20)  # shard 0 debit leg
        assert service.run_until_quiescent(timeout=5.0)
        service.check()
        assert service.commit.outcome_of(t1) == "commit"
        assert service.commit.outcome_of(t2) == "commit"
        survivors = service.groups[0].correct_processes()
        assert 1 not in survivors
        reference = machines[(0, sorted(survivors)[0])]
        for pid in survivors:
            assert machines[(0, pid)].balances == reference.balances
        assert reference.balances == {"C": 110, "D": 80}

    def test_open_loop_traffic_survives_coordinator_crash(self):
        # Open-loop Poisson traffic into four shards through shed
        # admission, shard 2's CT round-1 coordinator crashed mid-window:
        # the service drains and every per-group and cross-group checker
        # stays clean.
        spec = ShardSpec(
            stack=StackSpec(n=3, abcast="indirect", consensus="ct-indirect",
                            seed=11),
            shards=4, router_capacity=32, admission="shed",
        )
        service = build_sharded_system(
            spec, crashes={2: CrashSchedule.single(1, 0.02)}
        )
        for shard, group in enumerate(service.groups):
            WORKLOADS.get("poisson").factory(
                group, throughput=150.0, payload_size=64, duration=0.1,
                sink=service.router.sink(shard),
            ).install()
        service.router.deadline = 0.1
        service.run(until=0.1)
        assert service.run_until_quiescent(timeout=2.0)
        service.check()
        check_shards(service.traces(), service.groups[0].config)
        assert 1 not in service.groups[2].correct_processes()
        assert service.router.window_stats()["completed"] > 0


class TestDeterminism:
    @staticmethod
    def _run_once(seed):
        service, machines, bank = _bank(_spec(n=3, seed=seed))
        bank.transfer("A", "C", 15)
        bank.transfer("C", "D", 5)
        bank.deposit("B", 3)
        assert service.run_until_quiescent(timeout=2.0)
        balances = {
            (shard, pid): machines[(shard, pid)].balances
            for shard in range(2)
            for pid in service.groups[shard].correct_processes()
        }
        return (
            balances,
            [list(service.router.completions(shard)) for shard in range(2)],
            [len(g.trace.adeliveries()) for g in service.groups],
        )

    def test_same_seed_same_run(self):
        assert self._run_once(11) == self._run_once(11)

    def test_seed_changes_timing_not_outcome(self):
        balances_a, completions_a, _ = self._run_once(11)
        balances_b, completions_b, _ = self._run_once(12)
        assert balances_a == balances_b  # safety is seed-independent
