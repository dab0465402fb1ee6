"""Per-frame interpreted-work budget of the contention send path.

The frame path is the simulator's hottest code: every broadcast,
consensus round and heartbeat is a fan-out of frames, and each frame
is charged on three FIFO resources.  This module pins what one frame
costs as *exact counts* (``sys.setprofile``, so they repeat on any
machine):

* Python-level calls made inside ``repro.net`` — at most half of what
  the per-frame send path this routine replaced made on the very same
  drive (``PARENT_NET_CALLS``, measured at commit f28252a), and exactly
  120 fewer than before the network built each frame's tuple inline and
  dispatched deliveries on ``frame.kind`` itself (one ``Frame.__new__``
  and one ``Transport._dispatch`` per frame, ``BEFORE_INLINE_NET_CALLS``);
* Python-level calls made inside ``repro.sim`` — exactly one per FIFO
  stage (``FifoResource.stage`` charges the resource and pushes the
  heap entry in one call), so three per remote frame and one per
  self-addressed frame, plus the run's four entry frames;
* events pushed on the engine queue — unchanged: three per remote
  frame (sender CPU, medium, receiver CPU + delivery) and one per
  self-addressed frame.  The saving is interpreted work, never events;
* ``FaultPipeline.admit`` — never consulted while the pipeline is
  unarmed, once per frame while it is (a loss rule or a partition
  window), losing exactly the frames the per-frame path lost.
"""

from __future__ import annotations

import os

from repro.net.faults import LossRule, PartitionWindow
from repro.net.models import ContentionNetwork
from repro.net.setups import SETUP_1
from repro.net.transport import Transport
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace
from tests.helpers import count_calls

_NET_DIR = os.sep + os.path.join("repro", "net") + os.sep
_SIM_DIR = os.sep + os.path.join("repro", "sim") + os.sep

N = 3
ROUNDS = 8
#: Even rounds fan out to everyone (2 remote + 1 self), odd rounds to
#: the others only (2 remote).
REMOTE_FRAMES = ROUNDS * N * (N - 1)
SELF_FRAMES = (ROUNDS // 2) * N
FRAMES = REMOTE_FRAMES + SELF_FRAMES

#: ``repro.net`` calls this drive made at the parent commit (f28252a),
#: whose ``send_all`` built a frame and called ``Network.send`` per
#: destination: 22.2 per remote frame.
PARENT_NET_CALLS = 1065
#: ``repro.net`` calls at commit 6b97489: 9.2 per remote frame, with a
#: ``Frame.__new__`` per frame built and a ``Transport._dispatch`` hop
#: per frame delivered.
BEFORE_INLINE_NET_CALLS = 441
#: ...and now: 6.7 per remote frame (the network allocates each frame's
#: tuple inline and looks the handler up by kind in the table the
#: transport registered at attach).
NET_CALLS = 321
#: ``repro.sim`` calls this drive made at commit a9e089a, where each
#: stage was ``FifoResource.occupy`` plus a queue push (399 in all:
#: 156 + 156, 82 calendar-bucket advances, 1 column growth, 4 run
#: frames)...
PARENT_SIM_CALLS = 399
#: ...and now: one ``FifoResource.stage`` per stage, three per remote
#: frame and one per self-addressed frame, plus ``run`` → ``drain``.
SIM_CALLS = 3 * REMOTE_FRAMES + SELF_FRAMES + 2
#: (src, dst, body) lost to ``LossRule(probability=0.2)`` under
#: ``RngRegistry(seed=7)`` at the parent commit.
PARENT_LOST_TO_RULE = [
    (1, 1, (0, 1)),
    (3, 3, (0, 3)),
    (2, 3, (1, 2)),
    (2, 2, (2, 2)),
    (2, 3, (4, 2)),
    (3, 1, (4, 3)),
    (2, 3, (5, 2)),
    (1, 3, (6, 1)),
]


def drive(faults=()):
    """Fan ``ROUNDS`` rounds of ``send_all`` out of each process and
    run to quiescence under a call-counting profile hook."""
    engine = Engine()
    trace = Trace()
    network = ContentionNetwork(
        engine, SETUP_1, faults=faults, rngs=RngRegistry(seed=7)
    )
    delivered: list[tuple[int, int, tuple[int, int]]] = []
    transports = {}
    for pid in range(1, N + 1):
        transport = Transport(SimProcess(pid, engine, trace), network)
        transport.register(
            "t.data",
            lambda frame, _pid=pid: delivered.append(
                (frame.src, _pid, frame.body)
            ),
        )
        transports[pid] = transport

    def run():
        for round_no in range(ROUNDS):
            for pid, transport in transports.items():
                transport.send_all(
                    "t.data",
                    body=(round_no, pid),
                    size=100 + round_no,
                    include_self=round_no % 2 == 0,
                )
        engine.run()

    pushed_before = engine.equeue.seq
    _, counts = count_calls(run, _layer)
    return {
        "network": network,
        "delivered": delivered,
        "net_calls": counts["net"] + counts["admit"],
        "admit_calls": counts["admit"],
        "sim_calls": counts["sim"],
        "pushes": engine.equeue.seq - pushed_before,
    }


def _layer(code) -> str | None:
    """``admit`` (a ``repro.net`` call counted apart), ``net`` or ``sim``."""
    filename = code.co_filename
    if _NET_DIR in filename:
        return "admit" if code.co_name == "admit" else "net"
    if _SIM_DIR in filename:
        return "sim"
    return None


def sent_frames():
    """Every (src, dst, body) the drive sends, in send order."""
    return [
        (src, dst, (round_no, src))
        for round_no in range(ROUNDS)
        for src in range(1, N + 1)
        for dst in range(1, N + 1)
        if dst != src or round_no % 2 == 0
    ]


def lost_frames(run):
    return [
        frame for frame in sent_frames() if frame not in run["delivered"]
    ]


class TestUnarmedBudget:
    def test_net_calls_per_remote_frame_at_most_half_the_parents(self):
        run = drive()
        assert len(run["delivered"]) == FRAMES
        assert run["net_calls"] == NET_CALLS
        assert 2 * NET_CALLS <= PARENT_NET_CALLS
        assert BEFORE_INLINE_NET_CALLS - NET_CALLS == 2 * FRAMES

    def test_sim_calls_one_per_stage(self):
        run = drive()
        assert run["sim_calls"] == SIM_CALLS == 158
        assert 2 * SIM_CALLS < PARENT_SIM_CALLS

    def test_queue_pushes_per_frame_unchanged(self):
        run = drive()
        assert run["pushes"] == 3 * REMOTE_FRAMES + SELF_FRAMES

    def test_admit_never_called_and_counters_keep_their_shape(self):
        run = drive()
        network = run["network"]
        assert run["admit_calls"] == 0
        assert network.frames_dropped == 0
        assert network.frames_sent == {"t.data": FRAMES}
        assert network.bytes_sent == {
            "t.data": sum(
                100 + body[0] + 28 for _src, _dst, body in sent_frames()
            )
        }
        assert sorted(run["delivered"]) == sorted(sent_frames())


class TestArmedPipeline:
    def test_loss_rule_admits_every_frame_and_loses_the_parents(self):
        run = drive(faults=(LossRule(probability=0.2),))
        network = run["network"]
        assert run["admit_calls"] == FRAMES
        # The frames lost at the parent commit with the same seed: the
        # net.loss stream is drawn once per frame, in send order.
        lost = lost_frames(run)
        assert lost == PARENT_LOST_TO_RULE
        assert network.pipeline.lost == len(lost) == network.frames_dropped
        assert network.frames_sent == {"t.data": FRAMES}

    def test_partition_window_is_consulted_on_every_frame(self):
        window = PartitionWindow(start=0.0, end=1.0, groups=((1,), (2, 3)))
        run = drive(faults=(window,))
        network = run["network"]
        assert run["admit_calls"] == FRAMES
        lost = lost_frames(run)
        # Everything between p1 and {p2, p3}, both directions.
        assert lost == [
            frame for frame in sent_frames()
            if (frame[0] == 1) != (frame[1] == 1)
        ]
        assert network.pipeline.partitioned == len(lost) == 32
        assert network.frames_dropped == 32
