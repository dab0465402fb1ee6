"""``import repro`` loads no module that only a rare path runs.

Every sweep worker and every benchmark process pays for ``import repro``
in resident memory.  The process pool (``multiprocessing``, which pulls
in ``socket``), the CSV writer, the did-you-mean matcher (``difflib``)
and the result cache's and pool's ``pickle`` are imported inside the
functions that use them, so a serial, uncached run never loads them.
The checks run in a fresh interpreter: one then starts a pool without
``multiprocessing`` ever having been preloaded, the other runs a sweep
with ``use_cache=False``, which must neither load ``pickle`` nor leave
anything in its cache directory.
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

UNCACHED_SCRIPT = """
import os
import sys

from repro.harness import SweepSpec, run_suite
from repro.net.setups import SETUP_1
from repro.stack.builder import StackSpec

cache_dir = sys.argv[1]
suite = run_suite(
    SweepSpec(
        name="uncached",
        variants=(("indirect", StackSpec(
            n=3, abcast="indirect", consensus="ct-indirect",
            rb="sender", params=SETUP_1,
        )),),
        throughputs=(400.0,),
        payloads=(1, 1),
        target_messages=30,
    ),
    processes=1, cache_dir=cache_dir, use_cache=False,
)
assert suite.cache_misses == 1 and suite.cache_hits == 1, suite.summary()
assert os.listdir(cache_dir) == [], os.listdir(cache_dir)
assert "pickle" not in sys.modules, "an uncached sweep loaded pickle"
print("ok")
"""


def _run_fresh(script: str, *args: str) -> None:
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_import_repro_skips_pool_csv_and_difflib():
    _run_fresh(SCRIPT)


def test_uncached_sweep_reads_and_writes_no_cache(tmp_path):
    """``use_cache=False`` builds no result cache: the directory stays
    empty and ``pickle`` is never imported; the in-call dedup still
    computes the two identical points once."""
    _run_fresh(UNCACHED_SCRIPT, str(tmp_path))
