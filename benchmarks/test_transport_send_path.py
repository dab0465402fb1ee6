"""Micro-benchmark: the transport's broadcast fan-out hot path.

Every broadcast, consensus round, decision flood and heartbeat goes
through ``Transport.send_all``; under contention-model sweeps the
simulator issues millions of these.  ``send_all`` used to rebuild the
destination list and re-sort it on every call (``pids()`` itself sorted
the attached-process dict per call); now the network keeps its pid
tuple sorted — rebuilt only on attach — and each transport caches the
derived include-self / exclude-self tuples, so a fan-out is a plain
tuple walk.

To measure the changed path and not the downstream delivery
simulation, the benchmark pair drives ``send_all`` against a
frame-counting network stub (same ``attach``/``pids``/``multicast``
surface: the transport attaches with its kind -> handler table and
hands the network one ``(src, dsts, ...)`` fan-out per call, and the
network builds the frames); the equality test
then pins, on a *real* fabric, that the cached path produces frames
identical to the rebuild-and-sort reference.
"""

from __future__ import annotations

from repro.net.transport import Transport
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.trace import Trace
from tests.helpers import make_fabric

N = 8
ROUNDS = 20_000


class _CountingNetwork:
    """Minimal Network stand-in: accepts fan-outs, counts their frames
    (nothing is delivered, so the attached handler table goes unused)."""

    def __init__(self) -> None:
        self._processes: dict[int, SimProcess] = {}
        self._pids_sorted: tuple[int, ...] = ()
        self.frames = 0

    def attach(self, process: SimProcess, handlers) -> None:
        self._processes[process.pid] = process
        self._pids_sorted = tuple(sorted(self._processes))

    def pids(self) -> tuple[int, ...]:
        return self._pids_sorted

    def multicast(self, src, dsts, kind, body, size, control=True) -> None:
        self.frames += len(dsts)


def _naive_send_all(transport, kind, body, size, include_self=True,
                    control=True) -> None:
    """The pre-optimisation behaviour: rebuild + re-sort per call."""
    peers = tuple(sorted(transport.network._processes))
    dsts = [p for p in peers if include_self or p != transport.pid]
    transport.network.multicast(
        transport.pid, sorted(dsts), kind, body, size, control
    )


def _stub_fabric():
    engine = Engine()
    trace = Trace()
    network = _CountingNetwork()
    transports = [
        Transport(SimProcess(pid, engine, trace), network)
        for pid in range(1, N + 1)
    ]
    return network, transports


def _drive(send_all) -> int:
    network, transports = _stub_fabric()
    for i in range(ROUNDS):
        transport = transports[i % N]
        send_all(transport, "bench.data", body=i, size=64,
                 include_self=(i % 2 == 0))
    return network.frames


def test_send_all_precomputed_path(benchmark):
    frames = benchmark(
        lambda: _drive(lambda t, *a, **kw: t.send_all(*a, **kw))
    )
    assert frames == ROUNDS * N - (ROUNDS // 2)


def test_send_all_naive_rebuild_baseline(benchmark):
    frames = benchmark(lambda: _drive(_naive_send_all))
    assert frames == ROUNDS * N - (ROUNDS // 2)


def test_precomputed_and_naive_send_identical_frames():
    recorded: dict[str, list[tuple]] = {"fast": [], "naive": []}

    def run(label, send_all):
        fabric = make_fabric(4, latency=1e-6)
        for pid, transport in fabric.transports.items():
            transport.register(
                "bench.data",
                lambda frame, _pid=pid: recorded[label].append(
                    (frame.src, _pid, frame.body)
                ),
            )
        for i in range(50):
            transport = fabric.transports[(i % 4) + 1]
            send_all(transport, "bench.data", body=i, size=8,
                     include_self=(i % 3 == 0))
        fabric.engine.run()

    run("fast", lambda t, *a, **kw: t.send_all(*a, **kw))
    run("naive", _naive_send_all)
    assert recorded["fast"] == recorded["naive"]
