"""Property tests: Wilson interval invariants.

``tests/reliability/test_stopping.py`` pins worked examples and the
stopping rule; this module drives the same functions with hypothesis
over their whole domain.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.reliability.stopping import (
    wilson_half_width,
    wilson_interval,
)


@st.composite
def sample(draw):
    """A well-formed (successes, trials) pair, trials >= 1."""
    n = draw(st.integers(min_value=1, max_value=200_000))
    s = draw(st.integers(min_value=0, max_value=n))
    return s, n


class TestWilsonProperties:
    @given(sample())
    def test_interval_is_ordered_clamped_and_contains_the_rate(self, sn):
        s, n = sn
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0

    @given(sample())
    def test_boundary_counts_clamp_exactly(self, sn):
        s, n = sn
        lo, hi = wilson_interval(s, n)
        if s == 0:
            assert lo == 0.0
        if s == n:
            assert hi == 1.0

    @given(sample())
    def test_complement_symmetry(self, sn):
        # Successes and failures are the same evidence mirrored.
        s, n = sn
        lo, hi = wilson_interval(s, n)
        lo_c, hi_c = wilson_interval(n - s, n)
        assert lo == pytest.approx(1.0 - hi_c, abs=1e-9)
        assert hi == pytest.approx(1.0 - lo_c, abs=1e-9)

    @given(
        sn=sample(),
        scale=st.integers(min_value=2, max_value=100),
    )
    def test_scaling_the_evidence_never_widens(self, sn, scale):
        s, n = sn
        before = wilson_half_width(s, n)
        after = wilson_half_width(s * scale, n * scale)
        assert after <= before + 1e-12

    @given(sample())
    def test_half_width_matches_the_interval(self, sn):
        s, n = sn
        lo, hi = wilson_interval(s, n)
        assert wilson_half_width(s, n) == pytest.approx((hi - lo) / 2)
