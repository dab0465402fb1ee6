"""The parent process: spawns children, aggregates, never simulates.

Every repeat of every workload is a fresh child interpreter, one at a
time (the host has two cores; one stays free).  Untraced repeats feed
the end-to-end host metrics; one traced child per workload feeds the
per-layer attribution and ``prof_calls``.  Repeats of one workload must
agree on ``sim_digest`` and on every simulated-clock metric.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .catalogue import BY_NAME, END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Untraced repeats per workload in ``run``.  README.md, "Noise
#: evidence": same-code minima of 5 disagreed by at most 0.28, below the
#: 0.30 at which the issue says to raise it.
ROUNDS = 5

#: A child that runs longer than this is killed (the driver's cap is 180 s
#: for the whole invocation).
CHILD_TIMEOUT_S = 170.0


#: Metrics only the traced child can produce.
TRACED_SUFFIXES = (".self_share", ".calls", ".calls_in")
TRACED_ONLY = {"prof_calls", "trace.overhead_ratio"} | {
    m.name for m in PER_LAYER if m.name.endswith(TRACED_SUFFIXES)
}


class BenchError(Exception):
    """The benchmark cannot report: a child failed or repeats disagree."""


def require_program() -> None:
    if not (SRC / "repro").is_dir():
        raise BenchError(
            f"no program to measure: {SRC / 'repro'} does not exist"
        )


def program_env() -> dict[str, str]:
    """The environment with ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


def spawn(
    workload: str,
    seed: int,
    *,
    traced: bool = False,
    smoke: bool = False,
    trace_out: str | None = None,
) -> dict:
    """Run one child to completion and return its result object."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "child",
        "--workload", workload, "--seed", str(seed),
    ]
    if traced:
        command.append("--traced")
    if smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    spawned_at = time.time()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=program_env(), capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload}: child exceeded {CHILD_TIMEOUT_S:g} s"
        ) from None
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-6:])
        raise BenchError(
            f"{workload}: child exited {done.returncode}\n{tail}"
        )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("body_started_at") - spawned_at
    return out


def _is_exact(name: str) -> bool:
    return BY_NAME[name].clock in ("sim", "count")


def check_repeats(workload: str, repeats: list[dict]) -> None:
    """Repeats of one (workload, seed) must tell the same simulated story."""
    first = repeats[0]
    for other in repeats[1:]:
        if other["sim_digest"] != first["sim_digest"]:
            raise BenchError(
                f"{workload}: determinism: sim_digest "
                f"{other['sim_digest']} != {first['sim_digest']}"
            )
        for name, value in first["metrics"].items():
            if (
                _is_exact(name)
                and name in other["metrics"]
                and other["metrics"][name] != value
            ):
                raise BenchError(
                    f"{workload}: determinism: {name} "
                    f"{other['metrics'][name]!r} != {value!r}"
                )


def check_traced_pair(workload: str, first: dict, second: dict) -> dict:
    """Two traced children of one seed must count identical calls."""
    names = ["prof_calls"] + [
        name for name in first["metrics"]
        if name.endswith((".calls", ".calls_in"))
    ]
    if len(names) == 1:
        raise BenchError(f"{workload}: traced child reported no layer counts")
    for name in names:
        if first["metrics"][name] != second["metrics"][name]:
            raise BenchError(
                f"{workload}: determinism: {name} differs between two "
                f"traced children: {first['metrics'][name]!r} vs "
                f"{second['metrics'][name]!r}"
            )
    return {
        "workload": workload,
        "prof_calls": [
            first["metrics"]["prof_calls"], second["metrics"]["prof_calls"]
        ],
        "counts_compared": len(names),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(
    workload: str, untraced: list[dict], traced: dict | None
) -> dict:
    """Fold one workload's children into named metrics.

    Host-clock figures: ``wall_s`` is the minimum over the untraced
    repeats, ``peak_rss_mb`` the maximum, everything else the median.
    Simulated-clock figures and counts are identical across repeats
    (checked) and read off the first.
    """
    check_repeats(workload, untraced + ([traced] if traced else []))
    walls = [child["wall_s"] for child in untraced]
    q1, median, q3 = quartiles(walls)
    values: dict[str, float] = {
        "setup_s": statistics.median(c["setup_s"] for c in untraced),
        "wall_s": min(walls),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in untraced),
    }
    for name, value in untraced[0]["metrics"].items():
        if _is_exact(name):
            values[name] = value
        else:
            values[name] = statistics.median(
                child["metrics"][name] for child in untraced
            )
    if traced is not None:
        # Only what needs the profiler; its host timings are inflated.
        values.update({
            name: value for name, value in traced["metrics"].items()
            if name in TRACED_ONLY
        })
        values["trace.overhead_ratio"] = traced["wall_s"] / min(walls)

    def section(catalogue) -> dict:
        wanted = [
            m for m in catalogue
            if workload in m.on and (traced or m.name not in TRACED_ONLY)
        ]
        missing = [m.name for m in wanted if m.name not in values]
        if missing:
            raise BenchError(f"{workload}: metrics not measured: {missing}")
        return {
            m.name: {"value": values[m.name], "unit": m.unit, "clock": m.clock}
            for m in wanted
        }

    return {
        "why": WORKLOADS[workload],
        "end_to_end": section(END_TO_END),
        "per_layer": section(PER_LAYER),
        "wall_s_spread": {
            "n": len(walls), "min": min(walls), "q1": q1,
            "median": median, "q3": q3,
        },
        "info": untraced[0]["info"],
        "sim_digest": untraced[0]["sim_digest"],
        "attempted": untraced[0]["attempted"],
        "failed": untraced[0]["failed"],
        "repeats": untraced + ([traced] if traced else []),
    }


def host_record() -> dict[str, Any]:
    import platform

    def git_head() -> str | None:
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_head": git_head(),
    }


def run_all(
    seed: int,
    *,
    smoke: bool = False,
    trace_out: str | None = None,
    only: str | None = None,
    rounds: int = ROUNDS,
    seconds: float = 0.0,
    trace: bool = True,
) -> dict:
    """Round-robin untraced rounds, then one traced child per workload.

    ``run`` takes the defaults: all four workloads, ``ROUNDS`` rounds
    (one in a smoke run), traced children, and the determinism guard.
    ``run.py`` measures ``only`` one workload per invocation: untraced,
    ``ROUNDS`` rounds and then as many more as fit into ``seconds``;
    traced, one round and the traced child.
    """
    require_program()
    host = host_record()
    workloads = [only] if only else list(WORKLOADS)
    if smoke:
        rounds = 1
    untraced: dict[str, list[dict]] = {name: [] for name in workloads}
    started = time.perf_counter()
    done = 0
    while True:
        # A B C D, A B C D, ...: each workload's samples span the whole
        # run, so minute-scale host drift hits all workloads alike.
        for name in workloads:
            untraced[name].append(spawn(name, seed, smoke=smoke))
        done += 1
        elapsed = time.perf_counter() - started
        # Fixed-work bodies: stop when one more round would overrun.
        if done >= rounds and elapsed + elapsed / done > seconds:
            break
    traced: dict[str, dict | None] = dict.fromkeys(workloads)
    determinism = None
    if trace:
        for name in workloads:
            traced[name] = spawn(
                name, seed, traced=True, smoke=smoke, trace_out=trace_out
            )
        if not only:
            cheapest = min(workloads, key=lambda name: traced[name]["wall_s"])
            determinism = check_traced_pair(
                cheapest, traced[cheapest],
                spawn(cheapest, seed, traced=True, smoke=smoke),
            )
    host["loadavg_end"] = list(os.getloadavg())
    return {
        "schema": 1,
        "smoke": smoke,
        "seed": seed,
        "rounds": done,
        "host": host,
        "determinism": determinism,
        "workloads": {
            name: summarise(name, untraced[name], traced[name])
            for name in workloads
        },
    }


def render(result: dict) -> str:
    """Every metric by name and unit, one block per workload."""
    lines = []
    if result["smoke"]:
        lines.append("SMOKE RUN: sizes are about one tenth; not comparable")
    for name, entry in result["workloads"].items():
        lines.append(f"== {name}  (seed {result['seed']}, "
                     f"digest {entry['sim_digest']})")
        spread = entry["wall_s_spread"]
        for section in ("end_to_end", "per_layer"):
            lines.append(f"  {section}:")
            for metric, cell in entry[section].items():
                note = ""
                if metric == "wall_s":
                    note = (f"  (min of {spread['n']}; median "
                            f"{spread['median']:.4f}, quartiles "
                            f"{spread['q1']:.4f}..{spread['q3']:.4f})")
                elif metric == "latency_p99_ms":
                    note = (f"  ({entry['info']['latency_samples']} samples; "
                            f"{entry['info']['latency_window']})")
                lines.append(
                    f"    {metric:<40} {cell['value']:>16.6g} "
                    f"{cell['unit']:<6} [{cell['clock']}]{note}"
                )
    return "\n".join(lines)
