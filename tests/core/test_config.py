"""Tests for SystemConfig: construction, quorum sizes, coordinators.

Figure 2's intersection properties of these quorums are asserted in
``tests/consensus/test_quorums.py``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.exceptions import ConfigurationError


class TestConstruction:
    def test_default_f_is_max_minority(self):
        assert SystemConfig(n=3).f == 1
        assert SystemConfig(n=4).f == 1
        assert SystemConfig(n=5).f == 2
        assert SystemConfig(n=7).f == 3

    def test_explicit_f(self):
        assert SystemConfig(n=5, f=1).f == 1

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(n=0)

    def test_rejects_f_out_of_range(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(n=3, f=3)
        with pytest.raises(ConfigurationError):
            SystemConfig(n=3, f=-2)

    def test_processes_are_one_based(self):
        assert SystemConfig(n=4).processes == (1, 2, 3, 4)


class TestQuorums:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4)]
    )
    def test_majority_quorum(self, n, expected):
        assert SystemConfig(n=n).majority_quorum == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 3), (4, 3), (5, 4), (6, 5), (7, 5), (9, 7), (10, 7)],
    )
    def test_two_thirds_quorum(self, n, expected):
        """⌈(2n+1)/3⌉ — Algorithm 3 line 22."""
        assert SystemConfig(n=n).two_thirds_quorum == expected

    @pytest.mark.parametrize("n,expected", [(3, 2), (4, 2), (5, 2), (7, 3), (9, 4)])
    def test_third_quorum(self, n, expected):
        """⌈(n+1)/3⌉ — Algorithm 3 line 28."""
        assert SystemConfig(n=n).third_quorum == expected

    @given(st.integers(min_value=1, max_value=500))
    def test_two_majorities_intersect(self, n):
        config = SystemConfig(n=n)
        assert 2 * config.majority_quorum > n


class TestCoordinator:
    def test_rotates_round_robin(self):
        config = SystemConfig(n=3)
        assert [config.coordinator(r) for r in (1, 2, 3, 4)] == [2, 3, 1, 2]

    def test_single_process_group(self):
        config = SystemConfig(n=1)
        assert config.coordinator(1) == 1
        assert config.coordinator(17) == 1

    @given(st.integers(1, 30), st.integers(1, 1000))
    def test_coordinator_is_valid_process(self, n, r):
        config = SystemConfig(n=n)
        assert config.coordinator(r) in config.processes


class TestResiliencePredicates:
    def test_stability_threshold(self):
        assert SystemConfig(n=5, f=2).stability_threshold() == 3
        assert SystemConfig(n=3, f=0).stability_threshold() == 1
