"""Ablation: CT-indirect Phase-3 policy on missing messages — nack vs wait.

Algorithm 2 (line 30) *nacks* a proposal whose messages are missing,
aborting the round.  The alternative is to *wait* for the messages
(re-evaluating when the diffusion layer delivers).  Both are safe — the
benchmark checks correctness of each and compares their latency at a
throughput where proposals routinely race ahead of bulk data.
"""

from repro.checkers.abcast import check_abcast
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.net.setups import SETUP_1
from repro.stack.builder import StackSpec


def measure(policy: str, payload: int = 3000, throughput: float = 500.0):
    spec = ExperimentSpec(
        name=f"ct-indirect missing_policy={policy}",
        stack=StackSpec(
            n=3,
            abcast="indirect",
            consensus="ct-indirect",
            rb="sender",
            params=SETUP_1,
            ct_missing_policy=policy,
            seed=0,
        ),
        throughput=throughput,
        payload=payload,
        duration=0.4,
        warmup=0.1,
    )
    return run_experiment(spec)


def test_nack_vs_wait_policy(benchmark):
    results = benchmark.pedantic(
        lambda: {p: measure(p) for p in ("nack", "wait")}, rounds=1, iterations=1
    )
    nack, wait = results["nack"], results["wait"]
    nack_ms = nack.metric("latency")["mean_ms"]
    wait_ms = wait.metric("latency")["mean_ms"]
    benchmark.extra_info["latency_ms"] = {
        "nack": round(nack_ms, 3),
        "wait": round(wait_ms, 3),
    }
    # Both policies deliver everything correctly.
    assert nack.undelivered == 0
    assert wait.undelivered == 0
    # Neither policy is catastrophically worse in failure-free runs —
    # within 2x of each other (the interesting differences appear under
    # crashes, where waiting on a dead coordinator stalls until the FD
    # fires; the nack policy is what the paper specifies).
    ratio = wait_ms / nack_ms
    assert 0.5 < ratio < 2.0
