"""Tier-1 smoke test of the end-to-end benchmark (about 15 s).

One ``run --smoke`` exercises all four workloads at a tenth of their
size, traced and untraced, through the same parent/child machinery as
the real benchmark; the rest checks the pieces that need no simulation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, layers, parent
from benchmarks.e2e.catalogue import (
    CONTRACT_END_TO_END,
    CONTRACT_MAX_BOUND,
    CONTRACT_PER_LAYER,
    END_TO_END,
    LAYERS,
    OTHER,
    PER_LAYER,
    WORKLOADS,
)

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[dict, Path]:
    out = tmp_path_factory.mktemp("e2e")
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke",
         "--out", str(out / "result.json"), "--trace-out", str(out / "trace")],
        cwd=ROOT, env=parent.program_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads((out / "result.json").read_text()), out


def test_every_named_metric_is_present_with_its_unit(smoke):
    result, _ = smoke
    assert result["smoke"] is True
    assert set(result["workloads"]) == set(WORKLOADS)
    for workload, entry in result["workloads"].items():
        for section, catalogue in (
            ("end_to_end", END_TO_END), ("per_layer", PER_LAYER)
        ):
            expected = {m.name: m.unit for m in catalogue if workload in m.on}
            found = {
                name: cell["unit"] for name, cell in entry[section].items()
            }
            assert found == expected, (workload, section)


def test_self_shares_sum_to_one(smoke):
    result, _ = smoke
    for workload, entry in result["workloads"].items():
        total = sum(
            entry["per_layer"][f"{layer}.self_share"]["value"]
            for layer in LAYERS + (OTHER,)
        )
        assert abs(total - 1.0) <= 0.02, (workload, total)


def test_call_counts_repeat_across_two_traced_children(smoke):
    result, _ = smoke
    guard = result["determinism"]
    assert guard["counts_compared"] == 1 + 2 * len(LAYERS + (OTHER,))
    assert guard["prof_calls"][0] == guard["prof_calls"][1] > 0


def test_trace_artefacts_and_host_record(smoke):
    result, out = smoke
    for workload in WORKLOADS:
        assert (out / "trace" / f"{workload}.prof").stat().st_size > 0
        folded = json.loads(
            (out / "trace" / f"{workload}.layers.json").read_text()
        )
        assert folded["prof_calls"] == sum(
            layer["calls"] for layer in folded["layers"].values()
        )
    host = result["host"]
    for key in ("python", "platform", "nproc", "loadavg_start",
                "loadavg_end", "git_head"):
        assert key in host
    assert len(result["workloads"]["fig3_sweep"]["repeats"]) == 2


def test_benchmark_json_matches_the_catalogue():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == list(
        WORKLOADS.items()
    )
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] == [
        (m.name, m.unit, m.better, min(m.bound, CONTRACT_MAX_BOUND))
        for m in CONTRACT_END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] == [
        (m.name, m.unit, m.better) for m in CONTRACT_PER_LAYER
    ]
    assert {m.name for m in CONTRACT_END_TO_END + CONTRACT_PER_LAYER} == {
        m.name for m in END_TO_END + PER_LAYER
    }


def run_py(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "explore_hunt", "--seed", "0", "--seconds", "1.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("trace, contract", [
    ("0", CONTRACT_END_TO_END), ("1", CONTRACT_PER_LAYER),
])
def test_run_py_prints_the_contract_result_line(trace, contract):
    done = run_py("--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == 120 + 50
    assert {
        name: cell["unit"] for name, cell in line["metrics"].items()
    } == {m.name: m.unit for m in contract}
    for m in contract:
        value = line["metrics"][m.name]["value"]
        if "explore_hunt" not in m.on:
            assert value == 0, m.name
        elif m in CONTRACT_END_TO_END or m.name == "prof_calls":
            assert value > 0, m.name


def test_run_py_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_py("--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no program to measure" in done.stderr


def test_fold_charges_foreign_time_to_the_nearest_repro_caller():
    send = ("/x/src/repro/net/transport.py", 10, "send")
    push = ("/x/src/repro/sim/equeue.py", 20, "push")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    expo = ("/usr/lib/python3.11/random.py", 5, "expovariate")
    log = ("~", 0, "<built-in method math.log>")
    fire = ("/x/src/repro/workload/generators.py", 7, "_fire")
    body = ("/x/benchmarks/e2e/workloads.py", 1, "body")
    stats = {
        body: (1, 1, 1.0, 10.0, {}),
        send: (4, 4, 2.0, 6.0, {body: (4, 4, 2.0, 6.0)}),
        push: (4, 4, 1.0, 4.0, {send: (4, 4, 1.0, 4.0)}),
        heappush: (4, 4, 3.0, 3.0, {push: (4, 4, 3.0, 3.0)}),
        fire: (2, 2, 0.5, 3.0, {body: (2, 2, 0.5, 3.0)}),
        expo: (2, 2, 1.5, 2.5, {fire: (2, 2, 1.5, 2.5)}),
        log: (2, 2, 1.0, 1.0, {expo: (2, 2, 1.0, 1.0)}),
    }
    folded = layers.fold(stats)
    share = {k: v["self_share"] * 10.0 for k, v in folded["layers"].items()}
    assert share["net"] == pytest.approx(2.0)
    assert share["sim"] == pytest.approx(4.0)          # push + heappush
    assert share["workload"] == pytest.approx(3.0)     # _fire + expo + log
    assert share[OTHER] == pytest.approx(1.0)          # the root frame
    assert folded["prof_calls"] == 19
    assert folded["layers"]["sim"]["calls_in"] == 4
    assert folded["layers"]["net"]["calls_in"] == 4    # from the body
    assert folded["layers"][OTHER]["calls"] == 9       # body + builtins
    assert folded["layers"][OTHER]["calls_in"] == 6    # heappush + expo


def test_compare_flags_a_breach_and_only_a_breach():
    def result(wall: float, failed: float) -> dict:
        return {"workloads": {"long_crash": {"end_to_end": {
            "wall_s": {"value": wall}, "failed_share": {"value": failed},
            "recovery_ms": {"value": 900.0},
        }}}}

    _, breaches = compare.compare(result(4.0, 0.0), result(4.4, 0.0))
    assert breaches == 0
    _, breaches = compare.compare(result(4.0, 0.0), result(6.0, 0.001))
    assert breaches == 2


def test_repeats_that_disagree_are_refused():
    first = {"sim_digest": "a", "metrics": {"recovery_ms": 910.0}}
    with pytest.raises(parent.BenchError, match="sim_digest"):
        parent.check_repeats("long_crash", [
            first, {"sim_digest": "b", "metrics": {"recovery_ms": 910.0}},
        ])
    with pytest.raises(parent.BenchError, match="recovery_ms"):
        parent.check_repeats("long_crash", [
            first, {"sim_digest": "a", "metrics": {"recovery_ms": 911.0}},
        ])
