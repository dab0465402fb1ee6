"""Tests for summary statistics and the latency metric."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.events import (
    ABroadcastEvent,
    ADeliverEvent,
    CrashEvent,
    ProposeEvent,
    RDeliverEvent,
)
from repro.core.exceptions import ConfigurationError
from repro.core.identifiers import MessageId
from repro.core.message import AppMessage, make_payload
from repro.metrics.latency import measure_latency
from repro.metrics.probes import LatencyProbe
from repro.metrics.stats import percentile, summarize
from repro.sim.trace import Trace


class TestStats:
    def test_summarize_basics(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.p50 == pytest.approx(2.5)

    def test_single_sample(self):
        s = summarize([7.0])
        assert s.stdev == 0.0
        assert s.p99 == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.5) == pytest.approx(5.0)
        assert percentile([0.0, 10.0], 0.0) == 0.0
        assert percentile([0.0, 10.0], 1.0) == 10.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_summary_invariants(self, values):
        s = summarize(values)
        assert s.minimum <= s.p50 <= s.p90 <= s.p99 <= s.maximum
        # The mean may drift by a few ulps from float summation; allow
        # a hair of slack around the [min, max] envelope.
        slack = 1e-9 * max(1.0, abs(s.maximum))
        assert s.minimum - slack <= s.mean <= s.maximum + slack


def msg(origin, seq, size=1):
    return AppMessage(
        mid=MessageId(origin, seq), sender=origin, payload=make_payload(size)
    )


def trace_with(events):
    trace = Trace()
    for e in events:
        trace.record(e)
    return trace


class TestLatencyMetric:
    def test_average_over_processes_and_messages(self):
        """The paper's definition, computed by hand."""
        m = msg(1, 1)
        trace = trace_with([
            ABroadcastEvent(time=1.0, process=1, message=m),
            ADeliverEvent(time=1.2, process=1, message=m),
            ADeliverEvent(time=1.4, process=2, message=m),
            ADeliverEvent(time=1.6, process=3, message=m),
        ])
        report = measure_latency(trace, SystemConfig(n=3))
        assert report.stats.mean == pytest.approx((0.2 + 0.4 + 0.6) / 3)
        assert report.messages_measured == 1
        assert report.messages_fully_delivered == 1
        assert report.mean_ms == pytest.approx(400.0)

    def test_warmup_and_cutoff_trim_messages(self):
        early, late, mid = msg(1, 1), msg(1, 3), msg(1, 2)
        trace = trace_with([
            ABroadcastEvent(time=0.05, process=1, message=early),
            ABroadcastEvent(time=0.5, process=1, message=mid),
            ABroadcastEvent(time=2.0, process=1, message=late),
            ADeliverEvent(time=0.1, process=1, message=early),
            ADeliverEvent(time=0.6, process=1, message=mid),
            ADeliverEvent(time=2.2, process=1, message=late),
        ])
        report = measure_latency(
            trace, SystemConfig(n=1), warmup=0.1, cutoff=1.0
        )
        assert report.messages_measured == 1
        assert report.stats.mean == pytest.approx(0.1)

    def test_crashed_process_deliveries_excluded(self):
        m = msg(1, 1)
        trace = trace_with([
            ABroadcastEvent(time=0.0, process=1, message=m),
            ADeliverEvent(time=0.1, process=1, message=m),
            ADeliverEvent(time=0.2, process=2, message=m),
            CrashEvent(time=0.3, process=2),
        ])
        report = measure_latency(trace, SystemConfig(n=2))
        # Only correct p1's sample counts.
        assert report.stats.count == 1
        assert report.stats.mean == pytest.approx(0.1)

    def test_partially_delivered_messages_counted_honestly(self):
        m = msg(1, 1)
        trace = trace_with([
            ABroadcastEvent(time=0.0, process=1, message=m),
            ADeliverEvent(time=0.1, process=1, message=m),
        ])
        report = measure_latency(trace, SystemConfig(n=3))
        assert report.messages_measured == 1
        assert report.messages_fully_delivered == 0

    def test_empty_window_rejected(self):
        m = msg(1, 1)
        trace = trace_with([ABroadcastEvent(time=0.0, process=1, message=m)])
        with pytest.raises(ConfigurationError):
            measure_latency(trace, SystemConfig(n=3), warmup=1.0)

    def test_no_deliveries_rejected(self):
        m = msg(1, 1)
        trace = trace_with([ABroadcastEvent(time=0.5, process=1, message=m)])
        with pytest.raises(ConfigurationError):
            measure_latency(trace, SystemConfig(n=3))


class TestLatencyFold:
    """The latency probe's streaming fold, fed event by event."""

    def test_streams_latency_pairs(self):
        fold = LatencyProbe(2)
        fold.on_event(ABroadcastEvent(time=0.1, process=1, message=msg(1, 1)))
        fold.on_event(ADeliverEvent(time=0.25, process=1, message=msg(1, 1)))
        fold.on_event(ADeliverEvent(time=0.30, process=2, message=msg(1, 1)))
        report = fold.report(frozenset({1, 2}))
        assert report.samples == pytest.approx((0.15, 0.2))
        assert report.messages_measured == 1
        assert report.messages_fully_delivered == 1

    def test_window_filters_as_abroadcasts_arrive(self):
        fold = LatencyProbe(3, warmup=0.1, cutoff=0.5)
        for seq, sent in ((1, 0.05), (2, 0.2), (3, 0.6)):
            fold.on_event(
                ABroadcastEvent(time=sent, process=1, message=msg(1, seq))
            )
        for seq in (1, 2, 3):
            fold.on_event(
                ADeliverEvent(time=0.7, process=1, message=msg(1, seq))
            )
        report = fold.report(frozenset({1}))
        assert report.messages_measured == 1
        assert report.stats.count == 1

    def test_unmeasured_events_leave_no_state(self):
        fold = LatencyProbe(3)
        for i in range(1000):
            fold.on_event(
                RDeliverEvent(time=i * 1e-3, process=1, message=msg(1, i))
            )
            fold.on_event(ProposeEvent(time=i * 1e-3, process=1, instance=i,
                                       value=frozenset({MessageId(1, i)})))
        with pytest.raises(ConfigurationError, match="measurement window"):
            fold.report(frozenset({1}))
        assert not fold._samples and not fold._delivered_by

    def test_report_keeps_only_correct_processes(self):
        fold = LatencyProbe(3)
        fold.on_event(ABroadcastEvent(time=0.0, process=1, message=msg(1, 1)))
        fold.on_event(ADeliverEvent(time=0.1, process=1, message=msg(1, 1)))
        fold.on_event(ADeliverEvent(time=0.1, process=2, message=msg(1, 1)))
        report = fold.report(frozenset({1}))
        assert report.stats.count == 1
        # p2 crashed, so "fully delivered" only requires the survivors.
        assert report.messages_fully_delivered == 1
