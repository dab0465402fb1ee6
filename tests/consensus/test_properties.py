"""Property-based tests: consensus safety under randomized adversity.

Hypothesis drives randomized scenarios — group size, which processes
hold which messages, crash times within the resilience bound, false
suspicions — and the trace checkers assert the full property set of the
paper after every run.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkers.consensus import ConsensusChecker
from repro.consensus.base import ID_SET_CODEC
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.consensus.mostefaoui_raynal import MostefaouiRaynalConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus
from repro.core.events import RDeliverEvent
from repro.core.identifiers import IdWatermark, MessageId
from repro.core.message import AppMessage, make_payload
from repro.core.rcv import ReceivedStore
from repro.failure.detector import FalseSuspicion
from tests.helpers import make_fabric

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_consensus(cls, n, holders_map, crash_pids, crash_times, suspicions):
    """Drive one consensus instance; return (fabric, decisions)."""
    f_bound = cls.resilience_bound(
        __import__("repro.core.config", fromlist=["SystemConfig"]).SystemConfig(n=n)
    )
    fabric = make_fabric(
        n,
        f=f_bound,
        detection_delay=3e-3,
        false_suspicions=suspicions,
    )
    services, stores, decisions = {}, {}, {}
    for pid in fabric.config.processes:
        services[pid] = cls(
            fabric.transports[pid],
            fabric.config,
            fabric.detectors[pid],
            ID_SET_CODEC,
        )
        stores[pid] = ReceivedStore(IdWatermark(fabric.config.n))
        decisions[pid] = {}
        services[pid].on_decide(
            lambda k, v, _pid=pid: decisions[_pid].setdefault(k, v)
        )
    messages = {
        origin: AppMessage(
            mid=MessageId(origin, 1), sender=origin, payload=make_payload(4)
        )
        for origin in fabric.config.processes
    }
    indirect = cls.REQUIRES_RCV
    for pid in fabric.config.processes:
        held = [messages[o] for o in holders_map.get(pid, ())]
        for m in held:
            stores[pid].add(m)
            fabric.trace.record(
                RDeliverEvent(time=0.0, process=pid, message=m)
            )
        value = frozenset(m.mid for m in held)
        rcv = stores[pid].rcv if indirect else None
        services[pid].propose(1, value, rcv)
    for pid, at in zip(crash_pids, crash_times):
        fabric.crash(pid, at=at)
    fabric.run(until=5.0, max_events=3_000_000)
    return fabric, decisions


@st.composite
def scenario(draw, max_f):
    n = draw(st.integers(min_value=3, max_value=6))
    # Which messages each process initially holds: every process holds
    # its own message plus a random subset of the others'.
    holders_map = {}
    for pid in range(1, n + 1):
        extra = draw(st.sets(st.integers(1, n), max_size=n))
        holders_map[pid] = {pid} | extra
    f = max_f(n)
    crash_count = draw(st.integers(0, f))
    crash_pids = draw(
        st.lists(
            st.integers(1, n),
            min_size=crash_count,
            max_size=crash_count,
            unique=True,
        )
    )
    crash_times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.02),
            min_size=crash_count,
            max_size=crash_count,
        )
    )
    n_susp = draw(st.integers(0, 2))
    suspicions = []
    for _ in range(n_susp):
        observer = draw(st.integers(1, n))
        target = draw(st.integers(1, n).filter(lambda t: t != observer))
        start = draw(st.floats(min_value=0.0, max_value=0.01))
        suspicions.append(
            FalseSuspicion(observer=observer, target=target,
                           start=start, end=start + 0.005)
        )
    return n, holders_map, crash_pids, crash_times, tuple(suspicions)


@SLOW
@given(scenario(max_f=lambda n: (n - 1) // 2))
def test_original_ct_safety_and_termination(s):
    n, holders, crash_pids, crash_times, susp = s
    fabric, decisions = run_consensus(
        ChandraTouegConsensus, n, holders, crash_pids, crash_times, susp
    )
    ConsensusChecker(fabric.trace, fabric.config).check_all()


@SLOW
@given(scenario(max_f=lambda n: (n - 1) // 2))
def test_indirect_ct_no_loss_under_adversity(s):
    """The paper's Algorithm 2: ALL properties, including No loss and
    v-stability, hold under any within-bound crash/suspicion pattern."""
    n, holders, crash_pids, crash_times, susp = s
    fabric, decisions = run_consensus(
        CTIndirectConsensus, n, holders, crash_pids, crash_times, susp
    )
    ConsensusChecker(fabric.trace, fabric.config).check_all(
        no_loss=True, v_stability=True
    )


@SLOW
@given(scenario(max_f=lambda n: (n - 1) // 2))
def test_original_mr_safety_and_termination(s):
    n, holders, crash_pids, crash_times, susp = s
    fabric, decisions = run_consensus(
        MostefaouiRaynalConsensus, n, holders, crash_pids, crash_times, susp
    )
    ConsensusChecker(fabric.trace, fabric.config).check_all()


@SLOW
@given(scenario(max_f=lambda n: (n - 1) // 3))
def test_indirect_mr_no_loss_under_adversity(s):
    """The paper's Algorithm 3 under its reduced bound f < n/3."""
    n, holders, crash_pids, crash_times, susp = s
    fabric, decisions = run_consensus(
        MRIndirectConsensus, n, holders, crash_pids, crash_times, susp
    )
    ConsensusChecker(fabric.trace, fabric.config).check_all(
        no_loss=True, v_stability=True
    )
