"""Tests for the per-process transport endpoint."""

import pytest

from repro.core.exceptions import ConfigurationError
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

    def test_multicast_targets_subset(self):
        fabric = make_fabric(4)
        got = {pid: 0 for pid in (1, 2, 3, 4)}

        def bump(f):
            got[f.dst] += 1

        for pid in (1, 2, 3, 4):
            fabric.transports[pid].register("k", bump)
        fabric.transports[1].multicast([3, 4], "k", body=None, size=1)
        fabric.run()
        assert got == {1: 0, 2: 0, 3: 1, 4: 1}

    def test_peers_lists_everyone(self):
        fabric = make_fabric(3)
        assert fabric.transports[2].peers == (1, 2, 3)
