"""A running system is a value: a copy continues exactly.

Every callback a built system keeps — crash listeners, adelivery and
decision callbacks, detector listeners, the rcv cost hook — is a bound
method or a ``functools.partial`` over the system's own objects, never a
closure.  ``copy.deepcopy`` copies a bound method's object and a
partial's arguments along with the rest of the system, but shares a
closure as is, so a closure left in the wiring keeps calling into the
*original* system and the copy diverges from it.  Here a system is
copied mid-run (before and after the crash, where the case has one),
the original and the copy each run to the end, and both must record
the same event sequence.  The same holds for a ``pickle`` round trip,
which is how a running system is snapshotted: every test runs under
both copy functions.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro import CrashSchedule, StackSpec, build_system
from repro.shard import ShardSpec, build_sharded_system
from repro.shard.bank import ShardedBank, attach_machines, spread_accounts
from repro.stack.layers import WORKLOADS
from tests.metamorphic.test_relations import SCALING_CASES, VARIANTS, timeline

RATE = 300.0
DURATION = 0.2
HORIZON = 0.6

COPIES = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def build(case: str, workload: str):
    label, fd, crash_at = SCALING_CASES[case]
    stack = StackSpec(**{**VARIANTS[label].__dict__, "fd": fd})
    crashes = (CrashSchedule.none() if crash_at is None
               else CrashSchedule.single(2, crash_at))
    system = build_system(stack, crashes)
    WORKLOADS.get(workload).factory(
        system, throughput=RATE, payload_size=64, duration=DURATION
    ).install()
    return system


def copy_points(case: str) -> tuple[float, ...]:
    crash_at = SCALING_CASES[case][2]
    return (0.05,) if crash_at is None else (crash_at / 2, crash_at + 0.005)


@pytest.mark.parametrize("copier", sorted(COPIES))
@pytest.mark.parametrize("workload", ["symmetric", "closed-loop"])
@pytest.mark.parametrize("case", sorted(SCALING_CASES))
def test_a_copy_of_a_running_system_continues_exactly(
    case, workload, copier
):
    for at in copy_points(case):
        original = build(case, workload)
        original.run(until=at)
        twin = COPIES[copier](original)
        copied = len(original.trace.events)
        original.run(until=HORIZON)
        twin.run(until=HORIZON)
        expected = timeline(original.trace)
        assert len(expected) > copied
        assert timeline(twin.trace) == expected, f"copied at t={at}"


ACCOUNTS = list("ABCDEFGH")


def build_bank():
    spec = ShardSpec(
        stack=StackSpec(n=3, abcast="indirect", consensus="ct-indirect",
                        seed=42),
        shards=2,
    )
    service = build_sharded_system(
        spec, crashes={0: CrashSchedule.single(1, 0.012)}
    )
    accounts = spread_accounts(ACCOUNTS, spec.shards)
    machines = attach_machines(service, lambda shard: accounts[shard])
    bank = ShardedBank(service)
    for i in range(3 * len(ACCOUNTS)):
        src = ACCOUNTS[i % len(ACCOUNTS)]
        dst = ACCOUNTS[(i + 1) % len(ACCOUNTS)]
        service.engine.schedule(i * 1e-3, bank.transfer, src, dst, 5 + i)
    return service, machines


@pytest.mark.parametrize("copier", sorted(COPIES))
def test_a_copy_of_a_running_sharded_service_continues_exactly(copier):
    for at in (0.006, 0.018):
        original, machines = build_bank()
        original.run(until=at)
        twin, twin_machines = COPIES[copier]((original, machines))
        original.run(until=1.0)
        twin.run(until=1.0)
        assert original.commit.committed > 0
        assert [timeline(g.trace) for g in twin.groups] == [
            timeline(g.trace) for g in original.groups
        ], f"copied at t={at}"
        assert {key: m.balances for key, m in twin_machines.items()} == {
            key: m.balances for key, m in machines.items()
        }
