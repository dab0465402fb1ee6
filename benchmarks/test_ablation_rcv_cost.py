"""Ablation: the CPU cost of the rcv() predicate.

The paper attributes the measured overhead of indirect consensus to the
rcv() calls ("the calls to the rcv function ... take more and more
time" as batches grow).  This bench sweeps the per-identifier probe
cost: the indirect stack's latency must rise with it while the faulty
stack (which never calls rcv) is untouched.
"""

from dataclasses import replace

from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.net.setups import SETUP_1
from repro.stack.builder import StackSpec

COSTS = (0.0, 25e-6, 100e-6)


def measure(abcast, consensus, cost, throughput=600.0):
    params = replace(SETUP_1, rcv_lookup_cost=cost)
    spec = ExperimentSpec(
        name=f"{consensus} rcv_cost={cost * 1e6:.0f}us",
        stack=StackSpec(
            n=3, abcast=abcast, consensus=consensus, rb="sender",
            params=params, seed=0,
        ),
        throughput=throughput,
        payload=16,
        duration=0.4,
        warmup=0.1,
    )
    return run_experiment(spec)


def test_rcv_cost_sweep(benchmark):
    def sweep():
        return {
            "indirect": {
                cost: measure("indirect", "ct-indirect", cost) for cost in COSTS
            },
            "faulty": {
                cost: measure("faulty-ids", "ct", cost) for cost in COSTS
            },
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    latency = {
        variant: {c: r.metric("latency")["mean_ms"] for c, r in by_cost.items()}
        for variant, by_cost in results.items()
    }
    benchmark.extra_info["latency_ms"] = {
        variant: {f"{c * 1e6:.0f}us": round(ms, 3) for c, ms in by_cost.items()}
        for variant, by_cost in latency.items()
    }
    indirect = latency["indirect"]
    faulty = latency["faulty"]

    # The faulty stack never calls rcv: its latency is cost-independent.
    assert abs(faulty[0.0] - faulty[100e-6]) / faulty[0.0] < 0.02
    # The indirect stack pays for every probe, monotonically.
    assert indirect[0.0] < indirect[100e-6]
    assert indirect[25e-6] <= indirect[100e-6]
    # At zero probe cost, indirect matches the faulty stack closely —
    # the rcv charge is the *only* modelled overhead of correctness.
    assert abs(indirect[0.0] - faulty[0.0]) / faulty[0.0] < 0.10
