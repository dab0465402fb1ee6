"""``measure_latency`` over a kept trace equals the latency probe.

Both go through one fold (the probe's window, correct-process filter
and sample order), so on a real run they must agree on every field and
on the raw ``samples`` tuple — bit for bit, not approximately.  Covered
on the four golden stacks, plus a heartbeat-FD run with a crash, where
the correct-process filter has deliveries to drop.
"""

from __future__ import annotations

import pytest

from repro.failure.crash import CrashSchedule
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.metrics.latency import measure_latency
from repro.metrics.probes import LatencyProbe
from repro.net.setups import SETUP_1
from repro.sim.trace import Trace
from repro.stack.builder import StackSpec, build_system
from repro.stack.layers import WORKLOADS
from tests.harness.test_probe_agreement import GOLDEN_STACKS

WARMUP = 0.05
DURATION = 0.3


def assert_equivalent(value, report) -> None:
    stats = report.stats
    expected = {
        "mean_ms": stats.mean * 1e3,
        "p50_ms": stats.p50 * 1e3,
        "p90_ms": stats.p90 * 1e3,
        "p99_ms": stats.p99 * 1e3,
        "min_ms": stats.minimum * 1e3,
        "max_ms": stats.maximum * 1e3,
        "stdev_ms": stats.stdev * 1e3,
        "count": stats.count,
        "messages_measured": report.messages_measured,
        "fully_delivered": report.messages_fully_delivered,
    }
    assert dict(value.fields) == expected
    assert value.sample("samples") == report.samples


@pytest.mark.parametrize("stack_name", sorted(GOLDEN_STACKS))
def test_golden_stack_probe_equals_trace_measurement(stack_name):
    spec = ExperimentSpec(
        name=stack_name,
        stack=StackSpec(n=3, seed=5, **GOLDEN_STACKS[stack_name]),
        throughput=200.0,
        payload=64,
        duration=DURATION,
        warmup=WARMUP,
        drain=0.5,
    )
    systems = []
    result = run_experiment(spec, on_system=systems.append)
    system = systems[0]
    report = measure_latency(
        system.trace, system.config, warmup=WARMUP, cutoff=DURATION
    )
    assert_equivalent(result.metric("latency"), report)


def test_crashed_process_is_filtered_identically():
    """The probe retires every message all three processes delivered;
    the report still equals the batch fold, whose correct set excludes
    the crashed p3."""
    probe = LatencyProbe(3, warmup=WARMUP, cutoff=DURATION)
    system = build_system(
        StackSpec(n=3, seed=5, abcast="indirect", consensus="ct-indirect",
                  rb="sender", fd="heartbeat", params=SETUP_1),
        CrashSchedule.single(3, 0.2),
        trace=Trace([probe.on_event]),
    )
    workload = WORKLOADS.get("symmetric").factory(
        system, throughput=200.0, payload_size=64, duration=DURATION,
        arrivals="poisson",
    )
    workload.install()
    system.run(until=DURATION + 0.5)
    trace = system.trace
    assert trace.correct_processes(system.config.processes) == {1, 2}
    # p3 delivered measured messages before crashing: there is
    # something for the filter to drop.
    assert any(e.time >= WARMUP for e in trace.adeliveries(3))
    value = probe.finish(system, workload.sent)
    report = measure_latency(
        trace, system.config, warmup=WARMUP, cutoff=DURATION
    )
    assert_equivalent(value, report)
    assert report.messages_fully_delivered <= report.messages_measured
    # Only what the crashed p3 never delivered is still held.
    assert probe._retired > 0
    assert len(probe._sent) == report.messages_measured - probe._retired
    assert all(3 not in by for by in probe._delivered_by.values())
