"""Full-trace vs metrics-mode span agreement (the obs acceptance test).

The :class:`~repro.obs.spans.SpanRecorder` is subscribed to the run's
trace like every built-in probe, so the derived span forest must be
**bit-identical** whether the run retained a checkable event trace
(``trace_mode="full"``) or nothing at all (``trace_mode="metrics"``).
Asserted on the four golden stacks of the paper's evaluation, mirroring
``tests/harness/test_probe_agreement.py``.
"""

import pytest

from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.net.setups import SETUP_1, SETUP_2
from repro.obs.spans import SpanRecorder, check_well_formed
from repro.stack.builder import StackSpec

#: The four golden stacks of the evaluation (Figures 1-7).
GOLDEN_STACKS = {
    "indirect": dict(abcast="indirect", consensus="ct-indirect",
                     rb="sender", params=SETUP_1),
    "on-messages": dict(abcast="on-messages", consensus="ct",
                        rb="sender", params=SETUP_1),
    "faulty-ids": dict(abcast="faulty-ids", consensus="ct",
                       rb="sender", params=SETUP_1),
    "urb-ids": dict(abcast="urb-ids", consensus="ct",
                    rb="flood", params=SETUP_2),
}


def run_pair(stack_kwargs):
    base = dict(
        stack=StackSpec(n=3, seed=5, **stack_kwargs),
        throughput=200.0,
        payload=64,
        duration=0.3,
        warmup=0.05,
        drain=0.5,
    )
    full_recorder = SpanRecorder()
    full = run_experiment(
        ExperimentSpec(name="full", **base),
        extra_probes=(("spans", full_recorder),),
    )
    metrics_recorder = SpanRecorder()
    metrics = run_experiment(
        ExperimentSpec(
            name="metrics", trace_mode="metrics", safety_checks=False, **base
        ),
        extra_probes=(("spans", metrics_recorder),),
    )
    return (full, full_recorder), (metrics, metrics_recorder)


class TestSpanAgreement:
    @pytest.mark.parametrize("stack_name", sorted(GOLDEN_STACKS))
    def test_span_forest_is_bit_identical_across_modes(self, stack_name):
        (full, full_rec), (metrics, metrics_rec) = run_pair(
            GOLDEN_STACKS[stack_name]
        )
        # Span is a frozen dataclass: tuple equality is field-exact on
        # every sid, parent link, kind, label and float endpoint.
        assert full_rec.spans == metrics_rec.spans
        # The summary metric the tap publishes agrees too (MetricValue
        # equality covers every field).
        assert full.metrics["spans"] == metrics.metrics["spans"]
        # And the agreed-on forest is structurally sound.
        check_well_formed(full_rec.spans)

    @pytest.mark.parametrize("stack_name", sorted(GOLDEN_STACKS))
    def test_forest_covers_the_protocol_layers(self, stack_name):
        (_, recorder), _ = run_pair(GOLDEN_STACKS[stack_name])
        kinds = {span.kind for span in recorder.spans}
        assert "abcast" in kinds
        assert "adeliver" in kinds
        assert "consensus" in kinds
        assert "round" in kinds
        # Every adeliver leg nests under an abcast root; every round
        # under a consensus instance.
        by_sid = {span.sid: span for span in recorder.spans}
        for span in recorder.spans:
            if span.kind == "adeliver":
                assert by_sid[span.parent].kind == "abcast"
            if span.kind == "round":
                assert by_sid[span.parent].kind == "consensus"

    def test_crash_markers_appear_for_faulty_stack(self):
        from repro.explore.executor import replay
        from repro.explore.runner import explore_spec

        spec = explore_spec("faulty", seed=0)
        system, _record = replay(spec, "5:c2")
        recorder = SpanRecorder.from_trace(system.trace, system)
        kinds = {span.kind for span in recorder.spans}
        assert "crash" in kinds
        crash = next(s for s in recorder.spans if s.kind == "crash")
        assert crash.start == crash.end  # renders as an instant
        check_well_formed(recorder.spans)


class TestWellFormedness:
    def _span(self, **kwargs):
        from repro.obs.spans import Span

        base = dict(sid=0, parent=None, kind="abcast", name="m0.1",
                    process=0, group=0, start=0.0, end=1.0)
        base.update(kwargs)
        return Span(**base)

    def test_accepts_a_proper_forest(self):
        root = self._span()
        child = self._span(sid=1, parent=0, kind="adeliver", start=0.2,
                           end=0.8)
        check_well_formed((root, child))

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="ends before"):
            check_well_formed((self._span(start=2.0, end=1.0),))

    def test_rejects_dangling_parent(self):
        with pytest.raises(ValueError, match="parent"):
            check_well_formed((self._span(sid=1, parent=99),))

    def test_rejects_child_escaping_parent_interval(self):
        root = self._span()
        escapee = self._span(sid=1, parent=0, start=0.5, end=1.5)
        with pytest.raises(ValueError, match="escapes"):
            check_well_formed((root, escapee))

    def test_rejects_duplicate_sids(self):
        with pytest.raises(ValueError, match="duplicate"):
            check_well_formed((self._span(), self._span()))
