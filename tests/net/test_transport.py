"""Tests for the per-process transport endpoint."""

import inspect

import pytest

from repro.core.exceptions import ConfigurationError
from repro.net.frame import Frame
from repro.net.models import Network
from repro.net.transport import Transport
from tests.helpers import make_fabric


class TestRegistration:
    def test_dispatch_by_kind(self):
        fabric = make_fabric(2)
        got = []
        fabric.transports[2].register("a.x", lambda f: got.append(("x", f.body)))
        fabric.transports[2].register("a.y", lambda f: got.append(("y", f.body)))
        fabric.transports[1].send(2, "a.y", body="hello", size=5)
        fabric.run()
        assert got == [("y", "hello")]

    def test_duplicate_registration_rejected(self):
        fabric = make_fabric(2)
        fabric.transports[1].register("k", lambda f: None)
        with pytest.raises(ConfigurationError):
            fabric.transports[1].register("k", lambda f: None)

    def test_unhandled_kind_raises(self):
        fabric = make_fabric(2)
        fabric.transports[1].send(2, "nobody.home", body=None, size=1)
        with pytest.raises(
            ConfigurationError, match="p2: no handler for frame kind 'nobody.home'"
        ):
            fabric.run()

    def test_crashed_receiver_ignores_frames(self):
        fabric = make_fabric(2)
        got = []
        fabric.transports[2].register("k", lambda f: got.append(f))
        fabric.transports[1].send(2, "k", body=None, size=1)
        fabric.processes[2].crash()
        fabric.run()
        assert got == []
        assert fabric.network.frames_dropped == 1


class TestSendPrimitives:
    def test_send_to_self_loops_back(self):
        fabric = make_fabric(2)
        got = []
        fabric.transports[1].register("k", lambda f: got.append(f.src))
        fabric.transports[1].send(1, "k", body=None, size=1)
        fabric.run()
        assert got == [1]

    def test_send_all_includes_self_by_default(self):
        fabric = make_fabric(3)
        got = {pid: [] for pid in (1, 2, 3)}
        for pid in (1, 2, 3):
            fabric.transports[pid].register(
                "k", lambda f, _pid=pid: got[_pid].append(f.src)
            )
        fabric.transports[2].send_all("k", body=None, size=1)
        fabric.run()
        assert got == {1: [2], 2: [2], 3: [2]}

    def test_send_all_exclude_self(self):
        fabric = make_fabric(3)
        got = {pid: [] for pid in (1, 2, 3)}
        for pid in (1, 2, 3):
            fabric.transports[pid].register(
                "k", lambda f, _pid=pid: got[_pid].append(f.src)
            )
        fabric.transports[2].send_all("k", body=None, size=1, include_self=False)
        fabric.run()
        assert got == {1: [2], 2: [], 3: [2]}

    def test_peers_lists_everyone(self):
        fabric = make_fabric(3)
        assert fabric.transports[2].peers == (1, 2, 3)

    def test_received_frame_is_the_sent_fields(self):
        """What arrives is exactly ``(src, dst, kind, body, size)``."""
        fabric = make_fabric(2)
        got = []
        fabric.transports[2].register("k.data", got.append)
        fabric.transports[1].send(2, "k.data", body=("m", 1), size=40)
        fabric.run()
        assert got == [Frame(1, 2, "k.data", ("m", 1), 40)]


@pytest.mark.parametrize(
    "send",
    [Transport.send, Transport.send_all, Network.multicast, Network.send],
    ids=lambda fn: fn.__qualname__,
)
def test_the_kind_alone_carries_the_traffic_class(send):
    """No send path takes a data/control flag beside the kind
    (:func:`repro.net.frame.is_data_kind` reads it off the kind)."""
    assert "control" not in inspect.signature(send).parameters


def _naive_send_all(transport, kind, body, size, include_self=True) -> None:
    """Reference fan-out: rebuild and re-sort the destinations per call."""
    peers = tuple(sorted(transport.network._processes))
    dsts = [p for p in peers if include_self or p != transport.pid]
    transport.network.multicast(
        transport.pid, sorted(dsts), kind, body, size
    )


def test_precomputed_and_naive_send_identical_frames():
    """``send_all``'s cached destination tuples deliver exactly the
    frames the rebuild-and-sort reference does, in the same order."""
    recorded: dict[str, list[tuple]] = {"fast": [], "naive": []}

    def run(label, send_all):
        fabric = make_fabric(4, latency=1e-6)
        for pid, transport in fabric.transports.items():
            transport.register(
                "t.data",
                lambda frame, _pid=pid: recorded[label].append(
                    (frame.src, _pid, frame.body)
                ),
            )
        for i in range(50):
            transport = fabric.transports[(i % 4) + 1]
            send_all(transport, "t.data", body=i, size=8,
                     include_self=(i % 3 == 0))
        fabric.engine.run()

    run("fast", lambda t, *a, **kw: t.send_all(*a, **kw))
    run("naive", _naive_send_all)
    assert recorded["fast"] == recorded["naive"]
