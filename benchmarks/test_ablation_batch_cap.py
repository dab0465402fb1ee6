"""Ablation: batching in the reduction (identifiers per consensus run).

Algorithm 1 proposes the *entire* unordered set, so consensus
executions batch more messages as load grows — the property that keeps
the latency/throughput curves from collapsing.  Capping the batch
destroys that amortisation: with cap=1 the stack must pay one full
consensus per message.
"""

from repro.harness.runner import run_suite
from repro.harness.suite import SweepSpec
from repro.net.setups import SETUP_1
from repro.stack.builder import StackSpec

CAPS = (1, 4, None)

SWEEP = SweepSpec(
    name="ablation-batch-cap",
    variants=tuple(
        (
            f"cap={cap}",
            StackSpec(
                n=3,
                abcast="indirect",
                consensus="ct-indirect",
                rb="sender",
                params=SETUP_1,
                batch_cap=cap,
            ),
        )
        for cap in CAPS
    ),
    throughputs=(600.0,),
    payloads=(16,),
    target_messages=180,  # 0.3 s sending window at 600 msg/s
    warmup=0.1,
    drain=2.0,
)


def measure_all(cache_dir):
    suite = run_suite(SWEEP, use_cache=False, processes=1, cache_dir=cache_dir)
    return dict(zip(CAPS, suite.results))


def test_batch_cap_sweep(benchmark, tmp_path):
    results = benchmark.pedantic(
        measure_all, args=(tmp_path,), rounds=1, iterations=1
    )
    latency = {
        cap: r.metric("latency")["mean_ms"] for cap, r in results.items()
    }
    instances = {
        cap: r.metric("consensus")["instances_decided"]
        for cap, r in results.items()
    }
    benchmark.extra_info["latency_ms"] = {
        str(cap): round(ms, 3) for cap, ms in latency.items()
    }
    benchmark.extra_info["instances"] = {
        str(cap): count for cap, count in instances.items()
    }
    # Unbounded batching runs far fewer consensus instances...
    assert instances[None] < instances[1]
    # ...and achieves much lower latency at this load.
    assert latency[None] < latency[1] / 2
    # A cap of 4 sits in between.
    assert latency[None] <= latency[4] <= latency[1]
