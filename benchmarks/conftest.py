"""Shared benchmark configuration: the ``--bench-json`` perf ledger."""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path


# ----------------------------------------------------------------------
# The perf ledger: ``--bench-json`` snapshots
# ----------------------------------------------------------------------
#
# ``pytest benchmarks/... --bench-json=BENCH_x.json`` writes a compact,
# diff-friendly snapshot of every benchmark that ran: min/mean wall
# time, rounds, and the benchmark's ``extra_info`` (which is where the
# engine benchmarks record ns/event).  The committed ``BENCH_*.json``
# files at the repo root are produced exactly this way — one per PR
# that touches a hot path — so the ns/event trajectory is tracked
# in-repo instead of anecdotally in docstrings.  The CI ``bench-smoke``
# job replays the quick subset and warn-compares against the committed
# snapshot (see ``benchmarks/compare_bench.py``).
#
# Note: pytest only registers options from conftest files on the
# command line's paths, so the flag exists when the benchmarks
# directory (or a file in it) is part of the invocation — which is the
# only place it makes sense.


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help="write a compact JSON snapshot of benchmark results "
        "(the in-repo perf ledger format of BENCH_*.json)",
    )


def _git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except OSError:  # pragma: no cover - git absent
        return "unknown"


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json", default=None)
    if not path:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:  # pragma: no cover - plugin disabled
        return
    results = {}
    for bench in bench_session.benchmarks:
        stats = bench.stats
        results[bench.fullname] = {
            "min_s": round(stats.min, 6),
            "mean_s": round(stats.mean, 6),
            "stddev_s": round(stats.stddev, 6),
            "rounds": stats.rounds,
            "extra_info": dict(bench.extra_info),
        }
    payload = {
        "meta": {
            "git": _git_head(),
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "machine": platform.machine(),
        },
        "benchmarks": results,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    terminal = session.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:  # pragma: no branch
        terminal.write_line(f"bench-json: wrote {len(results)} entries to {path}")

