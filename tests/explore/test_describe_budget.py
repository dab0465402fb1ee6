"""Description budget of the pruned search: describe what can be read.

A pending event costs the explorer something only when it is
*described* (``describe_record``: a recursive walk of its arguments)
and *hashed* (``_hash_description``: a ``repr`` plus SHA-256).  The
search reads fingerprints only inside each schedule's expansion window,
and the tracker describes a record only if a read finds it still
pending — so the counts below are far below "every event, every step".
Exact call counts (``sys.setprofile``, so they repeat on any machine)
for the same 50-schedule search ``test_fingerprint_pins.py`` pins, next
to what the eager explorer made at the parent commit (1ba3f0c: a
fingerprint at each of the 2103 decision steps).
"""

from __future__ import annotations

import os
import sys

from repro.explore import explore_spec
from repro.explore.strategies import run_strategy

_FINGERPRINT_PY = os.sep + os.path.join("repro", "explore", "fingerprint.py")

#: Calls made at the parent commit on this very search.
PARENT = {"fingerprint": 2103, "describe_record": 2120,
          "_hash_description": 2355}
#: ...and now: one read per window step (the pinned 537), one
#: description per record a read found pending, one hash per
#: description or newly adelivered identifier.
BUDGET = {"fingerprint": 537, "describe_record": 689,
          "_hash_description": 740}


def counted_search() -> dict[str, int]:
    counts = dict.fromkeys(BUDGET, 0)

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_name in counts and code.co_filename.endswith(
                _FINGERPRINT_PY
            ):
                counts[code.co_name] += 1

    spec = explore_spec("faulty", n=3, budget=50, stop_after=0)
    sys.setprofile(hook)
    try:
        result = run_strategy(spec)
    finally:
        sys.setprofile(None)
    assert (result.schedules, result.pruned, len(result.violations)) == (
        50, 34, 3,
    )
    return counts


def test_describe_and_hash_calls_of_the_pinned_search(monkeypatch):
    # The check harness re-describes everything at every read.
    monkeypatch.delenv("REPRO_FP_CHECK", raising=False)
    counts = counted_search()
    assert counts == BUDGET
    assert all(3 * counts[name] < PARENT[name] for name in counts)
