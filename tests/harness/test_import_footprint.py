"""``import repro`` loads no module that only a rare path runs.

Every sweep worker and every benchmark process pays for ``import repro``
in resident memory.  The process pool (``multiprocessing``, which pulls
in ``socket``), the CSV writer, the did-you-mean matcher (``difflib``)
and the result cache's and pool's ``pickle`` are imported inside the
functions that use them, so a serial, uncached run never loads them.  The check runs in a fresh interpreter, which then starts a
pool without ``multiprocessing`` ever having been preloaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

LAZY = ("multiprocessing", "socket", "csv", "difflib", "pickle")

SCRIPT = f"""
import sys

import repro

loaded = [name for name in {LAZY!r} if name in sys.modules]
assert not loaded, f"import repro loaded {{loaded}}"

from repro.harness import parallel_map

assert parallel_map(abs, [-1, -2, -3], processes=2) == [1, 2, 3]
print("ok")
"""


def test_import_repro_skips_pool_csv_and_difflib():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
