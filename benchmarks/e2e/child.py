"""One repeat of one workload, in a fresh interpreter.

``python -m benchmarks.e2e child --workload W --seed S [--traced]``
prints one JSON object on its last stdout line.  Untraced, the body
runs under :class:`~benchmarks.e2e.spans.Spans` (a few wrapper calls
per simulated run); traced, it runs bare under ``cProfile`` and the
profile is folded by :mod:`benchmarks.e2e.layers`.  A wrong output
exits 1 naming the workload and the property.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Scratch space stays inside the checkout (git-ignored).
SCRATCH_PARENT = ROOT / ".bench_tmp"


def run_child(args: argparse.Namespace) -> dict:
    from repro.core.exceptions import ProtocolViolationError
    from repro.harness import SuiteError

    from . import layers
    from .spans import Spans
    from .workloads import REGISTRY, BenchFailure, warm_up

    workload = REGISTRY[args.workload]
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH_PARENT)
    try:
        inputs = workload.prepare(args.seed, args.smoke)
        warm_up(scratch)
        gc.collect()

        spans = Spans()
        profile = cProfile.Profile() if args.traced else None
        body_started_at = time.time()
        cpu_started = time.process_time()
        started = time.perf_counter()
        try:
            if profile is not None:
                raw = profile.runcall(workload.body, inputs, scratch)
            else:
                with spans.installed():
                    raw = workload.body(inputs, scratch)
        except ProtocolViolationError as error:
            raise BenchFailure(args.workload, error.prop, error.detail)
        except SuiteError as error:
            # run_suite wraps a failing point (a checker violation inside
            # a sweep) with the point's name.
            raise BenchFailure(args.workload, "sweep point failed", str(error))
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started

        outcome = workload.evaluate(inputs, raw)
        out = {
            "workload": args.workload,
            "seed": args.seed,
            "smoke": args.smoke,
            "traced": args.traced,
            "body_started_at": body_started_at,
            "wall_s": wall,
            "cpu_s": cpu,
            "sim_digest": outcome.digest,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": dict(outcome.metrics),
            "info": outcome.info,
        }
        if profile is None:
            events = spans.events
            out["metrics"].update({
                "stack.build_s": spans.seconds["stack.build"],
                "sim.run_s": spans.seconds["sim.run"],
                "checkers.check_s": spans.seconds["checkers.check"],
                "sim.events": events,
                "sim.wall_us_per_event":
                    spans.seconds["sim.run"] / events * 1e6,
            })
            if "messages" in outcome.info:
                out["metrics"]["sim.events_per_msg"] = (
                    events / outcome.info["messages"]
                )
        else:
            folded = layers.fold(pstats.Stats(profile).stats)
            out["metrics"]["prof_calls"] = folded["prof_calls"] / 1e6
            for layer, values in folded["layers"].items():
                for key, value in values.items():
                    out["metrics"][f"{layer}.{key}"] = value
            if args.trace_out:
                target = Path(args.trace_out)
                target.mkdir(parents=True, exist_ok=True)
                profile.dump_stats(target / f"{args.workload}.prof")
                (target / f"{args.workload}.layers.json").write_text(
                    json.dumps(folded, indent=2) + "\n"
                )
            if workload.deep_check is not None:
                try:
                    workload.deep_check(inputs, raw)
                except ProtocolViolationError as error:
                    raise BenchFailure(
                        args.workload, f"deep check: {error.prop}",
                        error.detail,
                    )
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        return out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass  # another child's scratch is still there


def main(args: argparse.Namespace) -> int:
    from .workloads import BenchFailure

    try:
        out = run_child(args)
    except BenchFailure as failure:
        print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0
