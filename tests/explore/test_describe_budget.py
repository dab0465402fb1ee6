"""Description budget of the pruned search: describe what can be read.

A pending event costs the explorer something only when it is
*described* (``describe_record``: a recursive walk of its arguments)
and *hashed* (``_hash_description``: a ``repr`` plus SHA-256).  The
search reads fingerprints only inside each schedule's expansion window,
and a read describes a record only if it finds it pending, once per
lifetime state — so the counts below are far below "every event, every step".
Exact call counts (``sys.setprofile``, so they repeat on any machine)
for the first 50 depth-first schedules of the faulty-ids stack at
n = 3 — depth-first because every one of its runs can expand, where a
breadth-first search this small records almost nothing once its
frontier outgrows its budget — next to what the eager explorer made on
the same search at commit 1ba3f0c (a fingerprint at each of its 1070
decision steps).
"""

from __future__ import annotations

import os

from repro.explore import explore_spec
from repro.explore.strategies import run_strategy
from tests.helpers import count_calls

_FINGERPRINT_PY = os.sep + os.path.join("repro", "explore", "fingerprint.py")

#: Calls the eager explorer of commit 1ba3f0c made on this very search.
PARENT = {"fingerprint": 1070, "describe_record": 1021,
          "_hash_description": 1125}
#: ...and now: one read per window step, one
#: description per record a read found pending, one hash per
#: description or newly adelivered identifier.
BUDGET = {"fingerprint": 104, "describe_record": 121,
          "_hash_description": 133}


def _fingerprint_call(code) -> str | None:
    if code.co_name in BUDGET and code.co_filename.endswith(_FINGERPRINT_PY):
        return code.co_name
    return None


def counted_search() -> dict[str, int]:
    spec = explore_spec(
        "faulty", n=3, budget=50, stop_after=0, strategy="dfs"
    )
    result, calls = count_calls(lambda: run_strategy(spec), _fingerprint_call)
    assert (result.schedules, result.pruned, len(result.violations)) == (
        50, 5, 0,
    )
    return {name: calls[name] for name in BUDGET}


def test_describe_and_hash_calls_of_the_pinned_search():
    counts = counted_search()
    assert counts == BUDGET
    assert all(3 * counts[name] < PARENT[name] for name in counts)
