"""Property-based tests for the broadcast layer.

Hypothesis randomizes broadcaster sets, payload sizes, per-frame delays
and crash schedules; after each run the broadcast checkers evaluate the
formal property set for the algorithm under test.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broadcast.flood import FloodReliableBroadcast
from repro.broadcast.sender import SenderReliableBroadcast
from repro.broadcast.uniform import UniformReliableBroadcast
from repro.checkers.broadcast import BroadcastChecker
from repro.core.identifiers import MessageId
from repro.core.message import AppMessage, make_payload
from repro.net.faults import DelayRule
from tests.helpers import make_fabric

SLOW = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def broadcast_scenario(draw):
    n = draw(st.integers(2, 6))
    f = (n - 1) // 2
    # Each entry: (sender, send_time, payload)
    count = draw(st.integers(1, 8))
    sends = [
        (
            draw(st.integers(1, n)),
            draw(st.floats(0.0, 0.05)),
            draw(st.integers(1, 2000)),
        )
        for _ in range(count)
    ]
    crash_count = draw(st.integers(0, f))
    crash_pids = draw(
        st.lists(st.integers(1, n), min_size=crash_count,
                 max_size=crash_count, unique=True)
    )
    crash_times = [draw(st.floats(0.0, 0.08)) for _ in crash_pids]
    # Per-destination delay spread (non-FIFO-ish reordering across pairs).
    delays = {
        pid: draw(st.floats(0.2e-3, 5e-3)) for pid in range(1, n + 1)
    }
    # Whether a crashing sender's in-flight frames die with it (lost
    # socket buffers) — the harsher interpretation of crash-stop.
    drop = draw(st.booleans())
    return n, f, sends, list(zip(crash_pids, crash_times)), delays, drop


def run_scenario(kind, scenario):
    n, f, sends, crashes, delays, drop = scenario
    fabric = make_fabric(
        n,
        f=f,
        detection_delay=8e-3,
        faults=tuple(
            DelayRule(dst=pid, delay=delay) for pid, delay in delays.items()
        ),
        drop_in_flight=drop,
    )
    services = {}
    for pid in fabric.config.processes:
        if kind == "flood":
            services[pid] = FloodReliableBroadcast(fabric.transports[pid])
        elif kind == "sender":
            services[pid] = SenderReliableBroadcast(
                fabric.transports[pid], fabric.detectors[pid]
            )
        else:
            services[pid] = UniformReliableBroadcast(
                fabric.transports[pid], fabric.config
            )
    for seq, (sender, at, size) in enumerate(sends, start=1):
        message = AppMessage(
            mid=MessageId(sender, seq * 100 + sender),
            payload=make_payload(size),
        )
        fabric.processes[sender].schedule_at(
            at, services[sender].broadcast, message
        )
    for pid, at in crashes:
        fabric.crash(pid, at=at)
    fabric.run(until=2.0, max_events=2_000_000)
    return fabric


@SLOW
@given(broadcast_scenario())
def test_flood_rb_properties(scenario):
    fabric = run_scenario("flood", scenario)
    BroadcastChecker(fabric.trace, fabric.config).check_all()


@SLOW
@given(broadcast_scenario())
def test_sender_rb_properties(scenario):
    fabric = run_scenario("sender", scenario)
    BroadcastChecker(fabric.trace, fabric.config).check_all()


@SLOW
@given(broadcast_scenario())
def test_urb_properties_including_uniformity(scenario):
    fabric = run_scenario("uniform", scenario)
    BroadcastChecker(fabric.trace, fabric.config).check_all(uniform=True)
