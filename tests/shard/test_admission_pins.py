"""Admission pins: shed-policy sweeps are frozen, and the router's own
event cost is exact.

The ``"delay"`` policy parks over-capacity arrivals in a per-shard FIFO
queue served on completion; the ``"shed"`` policy never parks, so a
change to the park path must leave every shed-policy column bit for bit
where it was.  The budget pins what the park queue buys: the router
schedules one forward per admission and at most one deadline event,
however long operations stay parked.
"""

import hashlib
import json
from collections import Counter

from repro.shard.service import ShardSpec, build_sharded_system
from repro.shard.sweep import ShardSweepSpec, run_shard_sweep
from repro.sim.engine import Engine
from repro.stack.builder import StackSpec
from repro.stack.layers import WORKLOADS

STACK = StackSpec(n=3, abcast="indirect", consensus="ct-indirect", seed=4)


def _column_hash(result_set) -> str:
    columns = {name: result_set.column(name) for name in result_set.columns}
    text = json.dumps(columns, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_shed_policy_sweep_columns_are_pinned():
    spec = ShardSweepSpec(
        name="shed-pin", stack=STACK, shards=(4,),
        offered_loads=(2000.0, 8000.0), duration=0.06, warmup=0.02,
        drain=0.05, router_capacity=4, admission="shed", window=0.02,
    )
    rows = run_shard_sweep(spec, processes=1)
    assert sum(rows.column("shard.shed")) > 0  # the shed path ran
    assert _column_hash(rows) == "3181a02f1e03c113"


def test_delay_run_schedules_one_forward_per_admission_and_one_expiry(
    monkeypatch,
):
    service = build_sharded_system(
        ShardSpec(stack=STACK, shards=4, router_capacity=2,
                  admission="delay")
    )
    router = service.router
    scheduled = Counter()

    def counting(method):
        def wrapper(engine, when, fn, *args):
            if getattr(fn, "__self__", None) is router:
                scheduled[fn.__name__] += 1
            return method(engine, when, fn, *args)
        return wrapper

    monkeypatch.setattr(Engine, "schedule", counting(Engine.schedule))
    monkeypatch.setattr(Engine, "schedule_at", counting(Engine.schedule_at))
    router.deadline = 0.2
    for shard, group in enumerate(service.groups):
        WORKLOADS.get("poisson").factory(
            group, throughput=500.0, payload_size=64, duration=0.1,
            sink=router.sink(shard),
        ).install()
    assert service.run_until_quiescent(timeout=1.0)
    assert sum(router.delayed) > 150  # most arrivals waited in the queue
    assert sum(router.shed) == 0
    assert router.admitted == router.offered  # every parked op admitted
    assert scheduled == {"_forward": sum(router.admitted), "_expire": 1}
    service.check()
