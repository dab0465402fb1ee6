"""Description budget of the pruned search: describe what can be read.

A pending event costs the explorer something only when it is
*described* (``describe_record``: a recursive walk of its arguments)
and *hashed* (``_hash_description``: a ``repr`` plus SHA-256).  The
search reads fingerprints only inside each schedule's expansion window,
and a read describes a record only if it finds it pending, once per
lifetime state — so the counts below are far below "every event, every step".
Exact call counts (``sys.setprofile``, so they repeat on any machine)
for the same 50-schedule search ``test_fingerprint_pins.py`` pins, next
to what the eager explorer made at the parent commit (1ba3f0c: a
fingerprint at each of the 2103 decision steps).
"""

from __future__ import annotations

import os

from repro.explore import explore_spec
from repro.explore.strategies import run_strategy
from tests.helpers import count_calls

_FINGERPRINT_PY = os.sep + os.path.join("repro", "explore", "fingerprint.py")

#: Calls made at the parent commit on this very search.
PARENT = {"fingerprint": 2103, "describe_record": 2120,
          "_hash_description": 2355}
#: ...and now: one read per window step (the pinned 537), one
#: description per record a read found pending, one hash per
#: description or newly adelivered identifier.
BUDGET = {"fingerprint": 537, "describe_record": 689,
          "_hash_description": 740}


def _fingerprint_call(code) -> str | None:
    if code.co_name in BUDGET and code.co_filename.endswith(_FINGERPRINT_PY):
        return code.co_name
    return None


def counted_search() -> dict[str, int]:
    spec = explore_spec("faulty", n=3, budget=50, stop_after=0)
    result, calls = count_calls(lambda: run_strategy(spec), _fingerprint_call)
    assert (result.schedules, result.pruned, len(result.violations)) == (
        50, 34, 3,
    )
    return {name: calls[name] for name in BUDGET}


def test_describe_and_hash_calls_of_the_pinned_search():
    counts = counted_search()
    assert counts == BUDGET
    assert all(3 * counts[name] < PARENT[name] for name in counts)
