"""Per-event cost of the measurement intake: one record, fanned out.

Every protocol event a run emits is recorded once by the run's trace,
which then calls each subscribed probe hook itself.  This module pins
that path as exact counts (``sys.setprofile``, so they repeat on any
machine) on a fixed small ``SETUP_1`` drive with the default probes, in
both trace modes, checked and unchecked:

* calls to the trace's recorders (``record`` and the typed ones the
  layers call, counted as ``record``) and to functions named
  ``on_event`` defined in ``repro`` — exactly three per protocol event
  unchecked: the trace's recorder, the latency probe and the consensus
  probe.  When a
  wrapper tap sat in front of the trace and the latency probe fed a
  second accumulator, the same drive made five
  (``PARENT_CALLS_PER_EVENT``);
* ``safety_checks`` adds exactly one: the abcast checker's
  ``on_event``, the same in both trace modes;
* the traffic, fd and utilisation probes read end-of-run counters and
  are never called per event.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.metrics.probes import DEFAULT_PROBES
from repro.net.setups import SETUP_1
from repro.stack.builder import StackSpec
from tests.helpers import count_calls

_REPRO_DIR = os.sep + "repro" + os.sep
_TRACE_FILE = os.path.join("repro", "sim", "trace.py")
#: The trace's recorders: the generic ``record`` and the typed ones.
RECORDERS = frozenset({
    "record", "abroadcast", "adeliver", "rbroadcast", "rdeliver",
    "propose", "decide", "crash",
})

#: Calls on the record path per protocol event before the fan-out
#: moved into the trace: tap, trace, latency probe, its accumulator's
#: ``record``, consensus probe.
PARENT_CALLS_PER_EVENT = 5
#: ...and now: trace, latency probe, consensus probe, and the abcast
#: checker when the run is checked.
CALLS_PER_EVENT = {False: 3, True: 4}
#: Protocol events the drive emits (the same in both trace modes).
EVENTS = 504


def _record_path(code) -> str | None:
    if code.co_name == "on_event" and _REPRO_DIR in code.co_filename:
        return "on_event"
    if code.co_name in RECORDERS and code.co_filename.endswith(_TRACE_FILE):
        return "record"
    return None


def drive(trace_mode: str, checked: bool) -> dict:
    spec = ExperimentSpec(
        name="record-path",
        stack=StackSpec(n=3, seed=5, abcast="indirect",
                        consensus="ct-indirect", rb="sender",
                        params=SETUP_1),
        throughput=200.0,
        payload=64,
        duration=0.2,
        warmup=0.05,
        drain=0.4,
        trace_mode=trace_mode,
        safety_checks=checked,
    )
    systems = []
    result, calls = count_calls(
        lambda: run_experiment(spec, on_system=systems.append), _record_path
    )
    return {
        "result": result,
        "events": len(systems[0].trace),
        "record": calls["record"],
        "on_event": calls["on_event"],
    }


@pytest.mark.parametrize("checked", [False, True])
@pytest.mark.parametrize("trace_mode", ["full", "metrics"])
class TestRecordPathBudget:
    def test_calls_per_protocol_event(self, trace_mode, checked):
        run = drive(trace_mode, checked)
        assert run["result"].spec.metrics == DEFAULT_PROBES
        assert run["events"] == EVENTS
        assert run["record"] == EVENTS
        assert run["on_event"] == (2 + checked) * EVENTS
        assert run["record"] + run["on_event"] == (
            CALLS_PER_EVENT[checked] * EVENTS
        )
        assert CALLS_PER_EVENT[checked] < PARENT_CALLS_PER_EVENT
