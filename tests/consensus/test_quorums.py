"""Figure 2's quorum-intersection arithmetic, each property once.

The quorum sizes are :class:`SystemConfig`'s, the resilience of the
indirect Mostefaoui-Raynal algorithm is
:meth:`MRIndirectConsensus.resilience_bound`, and
:func:`figure2_table` prints both; these tests hold them to the
inequalities of Section 3.3.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.consensus.base import ID_SET_CODEC
from repro.consensus.mostefaoui_raynal import MostefaouiRaynalConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus
from repro.core.config import SystemConfig
from repro.core.exceptions import ResilienceExceededError
from repro.harness.figures import figure2_table
from tests.helpers import make_fabric


def f_max(n: int) -> int:
    return MRIndirectConsensus.resilience_bound(SystemConfig(n))


class TestPaperValues:
    def test_figure2_example(self):
        """The paper's illustration: n=7, f=2 — two 5-element quorums
        share at least 3 = n - 2f processes."""
        config = SystemConfig(n=7, f=2)
        assert f_max(7) == 2
        assert config.two_thirds_quorum == 5
        assert 2 * config.two_thirds_quorum - config.n == 3
        assert config.third_quorum == 3

    @pytest.mark.parametrize(
        "n,quorum", [(3, 3), (4, 3), (5, 4), (6, 5), (7, 5), (10, 7)]
    )
    def test_phase2_quorum(self, n, quorum):
        """⌈(2n+1)/3⌉ is the least quorum size whose pairs always share
        the adoption threshold ⌈(n+1)/3⌉ (Algorithm 3, line 22)."""
        config = SystemConfig(n)
        assert config.two_thirds_quorum == quorum
        assert 2 * quorum - n >= config.third_quorum
        assert 2 * (quorum - 1) - n < config.third_quorum

    @pytest.mark.parametrize("n,f", [(3, 0), (4, 1), (6, 1), (7, 2), (10, 3)])
    def test_max_resilience(self, n, f):
        assert f_max(n) == f

    def test_validation(self):
        """The indirect MR algorithm accepts exactly f <= f_max and
        refuses to be built past it."""
        for n in range(1, 12):
            for f in range(0, n):
                config = SystemConfig(n, f)
                assert MRIndirectConsensus.tolerates(config) == (f <= f_max(n))
        fabric = make_fabric(4, f=2)
        with pytest.raises(ResilienceExceededError):
            MRIndirectConsensus(
                fabric.transports[1], fabric.config, fabric.detectors[1],
                ID_SET_CODEC,
            )

    def test_table_reads_the_quorums_and_the_bounds(self):
        for row in figure2_table().to_rows():
            config = SystemConfig(row["n"])
            f = MRIndirectConsensus.resilience_bound(config)
            assert row == {
                "n": config.n,
                "f_max (indirect MR)": f,
                "phase2 quorum ⌈(2n+1)/3⌉": config.two_thirds_quorum,
                "min overlap (n-2f)": config.n - 2 * f,
                "adoption threshold ⌈(n+1)/3⌉": config.third_quorum,
                "f_max (original MR)": (
                    MostefaouiRaynalConsensus.resilience_bound(config)
                ),
            }


class TestIntersectionTheorem:
    @given(st.integers(1, 300))
    def test_n_minus_2f_at_max_resilience_reaches_f_plus_1(self, n):
        """The inequality that drives the resilience drop: at
        f = max_resilience, n - 2f >= f + 1; at f + 1 it fails."""
        f = f_max(n)
        assert n - 2 * f >= f + 1
        assert n - 2 * (f + 1) < (f + 1) + 1

    @given(st.integers(2, 300), st.data())
    def test_lower_bound_is_tight(self, n, data):
        """The pigeonhole bound n - 2f on two (n-f)-quorums is achieved
        by actual sets."""
        f = data.draw(st.integers(0, n // 2))
        quorum = n - f
        a = set(range(quorum))            # first q elements
        b = set(range(n - quorum, n))     # last q elements
        assert len(a & b) == n - 2 * f

    @given(st.integers(1, 300))
    def test_phase2_quorums_intersect_in_adoption_threshold(self, n):
        """Any two ⌈(2n+1)/3⌉-quorums share ⌈(n+1)/3⌉ processes — the
        agreement mechanism of Algorithm 3."""
        config = SystemConfig(n)
        assert 2 * config.two_thirds_quorum - n >= config.third_quorum

    @given(st.integers(1, 300))
    def test_adoption_threshold_exceeds_f(self, n):
        """⌈(n+1)/3⌉ >= f + 1 under f < n/3: a value echoed that often
        was echoed by at least one correct process."""
        assert SystemConfig(n).third_quorum >= f_max(n) + 1
