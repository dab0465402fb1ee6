#!/usr/bin/env python3
"""Compare a fresh ``--bench-json`` snapshot against the committed ledger.

The committed ``BENCH_*.json`` files at the repo root are snapshots of
the perf ledger (see ``benchmarks/conftest.py``); CI's ``bench-smoke``
job re-runs the quick microbenchmarks on whatever machine it gets and
calls this script to compare means.  Cross-machine wall times are not
comparable in absolute terms, so the comparison is **warn-only**: a
benchmark that measures slower than the ledger by more than the warn
ratio is reported, and only a blow-out past ``--fail-ratio`` (default
2x — the kind of regression no machine difference explains on a
same-CPython run) fails the job.

Usage::

    python benchmarks/compare_bench.py bench-smoke.json
    python benchmarks/compare_bench.py new.json --baseline BENCH_pr6.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

#: Slower-than-ledger ratio that earns a warning line.
WARN_RATIO = 1.25
#: Slower-than-ledger ratio that fails the run (CI gate).
FAIL_RATIO = 2.0

_ROOT = Path(__file__).resolve().parent.parent


def _ledger_rank(path: Path) -> tuple[int, str]:
    """Order committed ledgers: baseline first, then by PR number."""
    stem = path.stem  # BENCH_baseline | BENCH_pr6 | ...
    match = re.search(r"(\d+)$", stem)
    return (int(match.group(1)) if match else 0, stem)


def _default_baseline() -> Path | None:
    ledgers = sorted(_ROOT.glob("BENCH_*.json"), key=_ledger_rank)
    return ledgers[-1] if ledgers else None


def _load(path: Path) -> dict:
    with path.open() as fh:
        return json.load(fh)


def compare(snapshot: dict, baseline: dict, fail_ratio: float) -> int:
    """Print the comparison table; return the number of hard failures.

    Snapshot/ledger asymmetries are expected across PRs — a snapshot
    taken mid-stack carries benchmarks the ledger predates, and ledgers
    keep entries for benchmarks a later PR renamed or retired.  Every
    asymmetry (one-sided entries, entries without a usable ``mean_s``)
    is reported and skipped; only a shared, well-formed pair can fail
    the run.
    """
    new = snapshot.get("benchmarks") or {}
    old = baseline.get("benchmarks") or {}
    if not new:
        print("warning: snapshot has no 'benchmarks' table; nothing to compare")
    if not old:
        print("warning: ledger has no 'benchmarks' table; nothing to compare")
    shared = [name for name in new if name in old]
    only_old = [name for name in old if name not in new]
    only_new = [name for name in new if name not in old]
    warns = fails = compared = 0
    for name in shared:
        short = name.split("::")[-1]
        new_mean = _mean(new[name])
        old_mean = _mean(old[name])
        if new_mean is None or old_mean is None:
            side = "snapshot" if new_mean is None else "ledger"
            print(f"{short}: no usable mean_s in {side} entry (skipped)")
            continue
        compared += 1
        ratio = new_mean / old_mean if old_mean else float("inf")
        flag = ""
        if ratio > fail_ratio:
            flag = "  << FAIL (>%.1fx regression)" % fail_ratio
            fails += 1
        elif ratio > WARN_RATIO:
            flag = "  << warn"
            warns += 1
        print(
            f"{short}: {old_mean:.6f}s -> {new_mean:.6f}s "
            f"({ratio:.2f}x){flag}"
        )
    for name in only_old:
        # A benchmark the ledger recorded but the snapshot no longer
        # runs (deleted or renamed since): worth a line, never a failure.
        print(
            f"warning: {name.split('::')[-1]}: in ledger only — deleted "
            "or renamed since (skipped)"
        )
    for name in only_new:
        print(f"{name.split('::')[-1]}: new in snapshot, no ledger entry yet")
    print(
        f"compared {compared} benchmarks: "
        f"{fails} failed, {warns} warned, "
        f"{len(only_old) + len(only_new) + len(shared) - compared} skipped"
    )
    return fails


def _mean(entry: object) -> float | None:
    """``entry["mean_s"]`` as a float, or ``None`` when absent/unusable."""
    if not isinstance(entry, dict):
        return None
    mean = entry.get("mean_s")
    if isinstance(mean, (int, float)) and not isinstance(mean, bool):
        return float(mean)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "snapshot", type=Path, help="fresh --bench-json output to check"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed ledger to compare against "
        "(default: newest BENCH_*.json at the repo root)",
    )
    parser.add_argument(
        "--fail-ratio",
        type=float,
        default=FAIL_RATIO,
        help="slowdown ratio that fails the run (default %(default)s)",
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline or _default_baseline()
    if baseline_path is None:
        print("no committed BENCH_*.json ledger found; nothing to compare")
        return 0
    print(f"ledger: {baseline_path.name}  snapshot: {args.snapshot}")
    fails = compare(
        _load(args.snapshot), _load(baseline_path), args.fail_ratio
    )
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
