"""Tests for frames and the calibrated network presets."""

from repro.core.identifiers import MESSAGE_ID_WIRE_SIZE
from repro.net.frame import FRAME_HEADER_SIZE, Frame
from repro.net.setups import SETUP_1, SETUP_2


class TestFrame:
    def test_wire_size_adds_header(self):
        f = Frame(src=1, dst=2, kind="k", body=None, size=100)
        assert f.wire_size() == 100 + FRAME_HEADER_SIZE

    def test_frames_are_immutable(self):
        import pytest
        f = Frame(src=1, dst=2, kind="k", body=None, size=0)
        with pytest.raises(AttributeError):
            f.size = 5  # type: ignore[misc]


class TestSetups:
    def test_setup2_is_faster_than_setup1(self):
        """Setup 2 (P4 + gigabit) must dominate Setup 1 (PIII + 100 Mb)
        in every constant."""
        assert SETUP_2.send_overhead < SETUP_1.send_overhead
        assert SETUP_2.recv_overhead < SETUP_1.recv_overhead
        assert SETUP_2.cpu_per_byte < SETUP_1.cpu_per_byte
        assert SETUP_2.wire_per_byte < SETUP_1.wire_per_byte
        assert SETUP_2.rcv_lookup_cost < SETUP_1.rcv_lookup_cost

    def test_wire_rates_match_link_speeds(self):
        """0.08 us/B = 100 Mb/s; 0.008 us/B = 1 Gb/s."""
        assert SETUP_1.wire_per_byte == 0.08e-6
        assert SETUP_2.wire_per_byte == 0.008e-6

    def test_id_frames_are_payload_independent(self):
        """A consensus frame carrying 10 ids costs the same regardless
        of the application payloads behind those ids — the decoupling
        the paper is about, visible at the size-accounting level."""
        ids_size = 10 * MESSAGE_ID_WIRE_SIZE
        f_small_payloads = Frame(src=1, dst=2, kind="cti.prop", body=None, size=ids_size)
        f_large_payloads = Frame(src=1, dst=2, kind="cti.prop", body=None, size=ids_size)
        assert f_small_payloads.wire_size() == f_large_payloads.wire_size()
