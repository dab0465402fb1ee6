"""Schedules do not depend on the interpreter's string-hash seed.

Every id set the protocol layers keep (delivered-id watermarks and
their exception sets, the unordered and ordered sets, consensus values)
is a Python set, and a set's iteration order follows its elements'
hashes.  ``MessageId`` hashes ints, which never vary, but a stray
``str`` in a set that is iterated — a frame kind, a label — would tie a
schedule to ``PYTHONHASHSEED``.  This runs one fixed spec per family in
two fresh interpreters with different hash seeds and requires identical
trace fingerprints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def fingerprints() -> dict[str, str]:
    """Trace fingerprint per family: CT-indirect, MR-indirect, the
    sequencer (each with a crash and heartbeat FD) and a 2-shard service."""
    from repro import CrashSchedule, StackSpec, SymmetricWorkload, build_system
    from repro.core.message import make_payload
    from repro.shard.service import ShardSpec, build_sharded_system
    from tests.helpers import trace_fingerprint

    out = {}
    # MR-indirect needs n = 4 to tolerate the crash (f < n/3).
    for family, consensus, n in (("indirect", "ct-indirect", 3),
                                 ("indirect", "mr-indirect", 4),
                                 ("sequencer", "none", 3)):
        system = build_system(
            StackSpec(n=n, abcast=family, consensus=consensus,
                      fd="heartbeat", seed=7),
            CrashSchedule.single(3, 0.15),
        )
        SymmetricWorkload(
            system, throughput=200.0, payload_size=64, duration=0.3,
            arrivals="poisson",
        ).install()
        system.run(until=1.0)
        out[consensus] = trace_fingerprint(system.trace)
    with build_sharded_system(ShardSpec(StackSpec(n=3, seed=7),
                                        shards=2)) as sharded:
        for i in range(40):
            sharded.router.submit(f"key{i % 7}", make_payload(32))
        assert sharded.run_until_quiescent(timeout=2.0)
        out["2-shard"] = ",".join(
            trace_fingerprint(trace) for trace in sharded.traces()
        )
    return out


def run_with_hash_seed(seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    code = (
        "import json; from tests.sim.test_hash_seed import fingerprints; "
        "print(json.dumps(fingerprints()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_fingerprints_do_not_depend_on_the_hash_seed():
    first = run_with_hash_seed("0")
    assert sorted(first) == ["2-shard", "ct-indirect", "mr-indirect", "none"]
    assert run_with_hash_seed("1") == first
