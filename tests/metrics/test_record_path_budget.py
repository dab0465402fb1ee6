"""Per-event cost of the measurement intake: one record, fanned out.

Every protocol event a run emits is recorded once by the run's trace,
which then calls each subscribed probe hook itself.  This module pins
that path as exact counts (``sys.setprofile``, so they repeat on any
machine) on a fixed small ``SETUP_1`` drive with the default probes, in
both trace modes:

* calls to functions named ``record`` or ``on_event`` defined in
  ``repro`` — exactly three per protocol event: the trace's ``record``,
  the latency probe and the consensus probe.  When a wrapper tap sat in
  front of the trace and the latency probe fed a second accumulator,
  the same drive made five (``PARENT_CALLS_PER_EVENT``);
* the traffic, fd and utilisation probes read end-of-run counters and
  are never called per event.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.metrics.probes import DEFAULT_PROBES
from repro.net.setups import SETUP_1
from repro.stack.builder import StackSpec

_REPRO_DIR = os.sep + "repro" + os.sep

#: Calls on the record path per protocol event before the fan-out
#: moved into the trace: tap, trace, latency probe, its accumulator's
#: ``record``, consensus probe.
PARENT_CALLS_PER_EVENT = 5
#: ...and now: trace, latency probe, consensus probe.
CALLS_PER_EVENT = 3
#: Protocol events the drive emits (the same in both trace modes).
EVENTS = 504


def drive(trace_mode: str) -> dict:
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
        safety_checks=trace_mode == "full",
    )
    systems = []
    calls = {"record": 0, "on_event": 0}

    def hook(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name in calls and _REPRO_DIR in code.co_filename:
            calls[code.co_name] += 1

    sys.setprofile(hook)
    try:
        result = run_experiment(spec, on_system=systems.append)
    finally:
        sys.setprofile(None)
    return {
        "result": result,
        "events": len(systems[0].trace),
        "record": calls["record"],
        "on_event": calls["on_event"],
    }


@pytest.mark.parametrize("trace_mode", ["full", "metrics"])
class TestRecordPathBudget:
    def test_three_calls_per_protocol_event(self, trace_mode):
        run = drive(trace_mode)
        assert run["result"].spec.metrics == DEFAULT_PROBES
        assert run["events"] == EVENTS
        assert run["record"] == EVENTS
        assert run["on_event"] == 2 * EVENTS
        assert run["record"] + run["on_event"] == CALLS_PER_EVENT * EVENTS
        assert CALLS_PER_EVENT < PARENT_CALLS_PER_EVENT
