"""Tests for the declarative link-fault pipeline."""

import pickle

import pytest

from repro.core.exceptions import ConfigurationError
from repro.net.faults import (
    DelayRule,
    DuplicationRule,
    FaultPipeline,
    LossRule,
    PartitionWindow,
)
from repro.net.frame import Frame
from repro.net.models import ConstantLatencyNetwork
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace
from repro.stack.builder import StackSpec


def make_net(n=2, faults=(), seed=0, **kwargs):
    engine = Engine()
    trace = Trace()
    network = ConstantLatencyNetwork(
        engine, base=1e-3, faults=faults, rngs=RngRegistry(seed=seed), **kwargs
    )
    inboxes = {pid: [] for pid in range(1, n + 1)}
    for pid in range(1, n + 1):
        network.attach(
            SimProcess(pid, engine, trace), {"test.data": inboxes[pid].append}
        )
    return engine, network, inboxes


def frame(src=1, dst=2, size=100, kind="test.data"):
    return Frame(src=src, dst=dst, kind=kind, body="x", size=size)


class TestMatching:
    def test_unconstrained_rule_matches_everything(self):
        rule = DelayRule(delay=1e-3)
        assert rule.matches(frame())
        assert rule.matches(frame(src=9, dst=7, kind="x.y"))

    def test_each_constraint_filters(self):
        assert DelayRule(src=1, delay=1e-3).matches(frame(src=1))
        assert not DelayRule(src=2, delay=1e-3).matches(frame(src=1))
        assert DelayRule(dst=2, delay=1e-3).matches(frame(dst=2))
        assert not DelayRule(dst=3, delay=1e-3).matches(frame(dst=2))
        assert DelayRule(kind_prefix="test.", delay=1e-3).matches(frame())
        assert not DelayRule(kind_prefix="ct.", delay=1e-3).matches(frame())
        # The traffic class is the kind's: ``.data`` is data.
        assert DelayRule(control=False, delay=1e-3).matches(frame())
        assert not DelayRule(control=True, delay=1e-3).matches(frame())
        assert DelayRule(control=True, delay=1e-3).matches(frame(kind="x.y"))
        assert not DelayRule(control=False, delay=1e-3).matches(
            frame(kind="x.y")
        )


class TestLoss:
    def test_probabilistic_loss_is_deterministic_per_seed(self):
        def delivered(seed):
            engine, network, inboxes = make_net(
                faults=(LossRule(probability=0.5),), seed=seed
            )
            for _ in range(40):
                network.send(frame())
            engine.run()
            return len(inboxes[2]), network.pipeline.lost

        got, lost = delivered(1)
        assert 0 < got < 40
        assert got + lost == 40
        assert delivered(1) == (got, lost)
        assert delivered(2) != (got, lost)  # another stream realisation

    def test_nth_frame_loss_is_exact(self):
        engine, network, inboxes = make_net(
            faults=(LossRule(kind_prefix="test.", nth=(2, 4)),)
        )
        for i in range(1, 6):
            network.send(frame(size=i))
        engine.run()
        assert [f.size for f in inboxes[2]] == [1, 3, 5]
        assert network.pipeline.lost == 2
        assert network.frames_dropped == 2

    def test_non_matching_frames_draw_nothing(self):
        # A fully biased rule that never matches must not perturb the
        # run at all (no net.loss draws).
        engine, network, inboxes = make_net(
            faults=(LossRule(kind_prefix="other.", probability=1.0),)
        )
        for _ in range(5):
            network.send(frame())
        engine.run()
        assert len(inboxes[2]) == 5
        assert network.pipeline.lost == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LossRule()  # no mechanism
        with pytest.raises(ConfigurationError):
            LossRule(probability=1.5)
        with pytest.raises(ConfigurationError):
            LossRule(probability=0.5, nth=(1,))
        with pytest.raises(ConfigurationError):
            LossRule(nth=(0,))

    def test_probabilistic_rules_need_rngs(self):
        with pytest.raises(ConfigurationError):
            FaultPipeline(Engine(), rules=(LossRule(probability=0.5),))
        # Deterministic nth-losses do not.
        FaultPipeline(Engine(), rules=(LossRule(nth=(1,)),))


class TestDuplication:
    def test_deterministic_duplicate(self):
        engine, network, inboxes = make_net(
            faults=(DuplicationRule(kind_prefix="test.", copies=2),)
        )
        network.send(frame())
        engine.run()
        assert len(inboxes[2]) == 3  # original + 2 copies
        assert network.pipeline.duplicated == 2
        assert network.frames_sent == {"test.data": 1}  # one protocol send

    def test_probabilistic_duplicate_is_deterministic_per_seed(self):
        def copies(seed):
            engine, network, inboxes = make_net(
                faults=(DuplicationRule(probability=0.3),), seed=seed
            )
            for _ in range(30):
                network.send(frame())
            engine.run()
            return len(inboxes[2])

        got = copies(5)
        assert 30 < got < 60
        assert copies(5) == got

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DuplicationRule(probability=0.0)
        with pytest.raises(ConfigurationError):
            DuplicationRule(copies=0)


class TestDelayRules:
    def test_first_matching_rule_wins(self):
        engine, network, inboxes = make_net(
            faults=(DelayRule(src=1, delay=5e-3), DelayRule(delay=50e-3))
        )
        network.send(frame(src=1))
        engine.run()
        assert engine.now == pytest.approx(5e-3)

    def test_extra_stretches_the_model_delay(self):
        engine, network, inboxes = make_net(
            faults=(DelayRule(extra=2e-3),)
        )
        network.send(frame())
        engine.run()
        assert engine.now == pytest.approx(1e-3 + 2e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DelayRule()  # neither override nor extra
        with pytest.raises(ConfigurationError):
            DelayRule(delay=-1.0)
        with pytest.raises(ConfigurationError):
            DelayRule(extra=-1.0)

    def test_delay_override_rejected_by_the_contention_model(self):
        """The contention model has no single one-way delay to replace,
        so an override rule would be a silent no-op — reject it."""
        from repro.net.models import ContentionNetwork, NetworkParams

        params = NetworkParams(10e-6, 10e-6, 0.0, 5e-6, 0.1e-6)
        with pytest.raises(ConfigurationError, match="constant model only"):
            ContentionNetwork(
                Engine(), params, faults=(DelayRule(delay=1e-3),)
            )
        # Additive extras are meaningful on both models.
        ContentionNetwork(Engine(), params, faults=(DelayRule(extra=1e-3),))


class TestPartitionWindow:
    def test_severs_only_cross_group_inside_window(self):
        window = PartitionWindow(start=1.0, end=2.0, groups=((1, 2), (3,)))
        assert window.severs(1, 3, now=1.5)
        assert not window.severs(1, 2, now=1.5)  # same group
        assert not window.severs(1, 3, now=0.5)  # before window
        assert not window.severs(1, 3, now=2.0)  # end is exclusive
        assert not window.severs(3, 3, now=1.5)  # loopback never severed

    def test_unlisted_processes_form_an_implicit_group(self):
        window = PartitionWindow(start=0.0, end=1.0, groups=((1,),))
        assert window.severs(1, 4, now=0.5)
        assert not window.severs(4, 5, now=0.5)  # both unlisted

    def test_network_drops_frames_sent_inside_the_window(self):
        engine, network, inboxes = make_net(
            n=3,
            faults=(PartitionWindow(start=1.0, end=2.0, groups=((1, 2), (3,))),),
        )
        network.send(frame(src=1, dst=3, size=1))       # before: passes
        engine.schedule(1.5, network.send, frame(src=1, dst=3, size=2))
        engine.schedule(1.5, network.send, frame(src=1, dst=2, size=3))
        engine.schedule(2.5, network.send, frame(src=1, dst=3, size=4))
        engine.run()
        assert [f.size for f in inboxes[3]] == [1, 4]
        assert [f.size for f in inboxes[2]] == [3]
        assert network.pipeline.partitioned == 1

    def test_in_flight_frames_survive_the_window_opening(self):
        engine, network, inboxes = make_net(
            faults=(DelayRule(delay=2.0),
                    PartitionWindow(start=1.0, end=3.0, groups=((1,), (2,)))),
        )
        network.send(frame())  # sent at t=0, lands at t=2 mid-window
        engine.run()
        assert len(inboxes[2]) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=2.0, end=1.0, groups=((1,),))
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=0.0, end=1.0, groups=())
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=0.0, end=1.0, groups=((1,), (1, 2)))


class TestRuleHygiene:
    def test_rules_pickle_roundtrip(self):
        rules = (
            LossRule(probability=0.25, src=1),
            LossRule(nth=(3,)),
            DuplicationRule(copies=2),
            DelayRule(dst=2, delay=1e-3, extra=5e-4),
            PartitionWindow(start=0.1, end=0.2, groups=((1, 2), (3,))),
        )
        assert pickle.loads(pickle.dumps(rules)) == rules

    @pytest.mark.parametrize(
        "rule",
        [
            LossRule(src=9, nth=(1,)),
            DuplicationRule(dst=9),
            DelayRule(src=1, dst=9, extra=1e-3),
        ],
        ids=["loss", "duplication", "delay"],
    )
    def test_stack_spec_refuses_a_rule_naming_an_unknown_process(self, rule):
        """A rule whose ``src``/``dst`` is outside the group would never
        match a frame, so it would silently do nothing."""
        with pytest.raises(ConfigurationError, match="unknown p9"):
            StackSpec(n=3, faults=(rule,))
        StackSpec(n=9, faults=(rule,))

    def test_unknown_rule_type_rejected_by_pipeline(self):
        with pytest.raises(ConfigurationError):
            FaultPipeline(Engine(), rules=(object(),))

    def test_fault_free_pipeline_is_inert(self):
        pipeline = FaultPipeline(Engine())
        f = frame()
        assert pipeline.admit(f) == [f]
        assert pipeline.delay_rule_for(f) is None
        assert pipeline.extra_delay(f) == 0.0
