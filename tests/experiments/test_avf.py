"""Tests for the dirty-exposure / residual-failure model."""

import pytest

from repro.core import ProtectionConfig
from repro.experiments import (
    RunConfig,
    dirty_exposure,
    expected_uncorrectable,
    exposure_comparison,
    p_double_bit,
    run_refs,
)

FAST = RunConfig(n_refs=10_000, warmup_refs=3_000)


class TestPDoubleBit:
    def test_zero_exposure_is_zero(self):
        assert p_double_bit(1e-12, 0.0) == 0.0

    def test_zero_rate_is_zero(self):
        assert p_double_bit(0.0, 1e9) == 0.0

    def test_monotone_in_exposure(self):
        assert p_double_bit(1e-9, 1e6) < p_double_bit(1e-9, 1e8)

    def test_saturates_at_one(self):
        assert p_double_bit(1.0, 1e6) == pytest.approx(1.0)

    def test_small_lambda_quadratic(self):
        """For small λ, P ≈ λ²/2."""
        rate, t = 1e-9, 1e3
        lam = rate * 72 * t
        assert p_double_bit(rate, t) == pytest.approx(lam**2 / 2, rel=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            p_double_bit(-1.0, 1.0)


class TestExposure:
    def test_exposure_from_fraction(self):
        out = run_refs("mesa", None, FAST)
        n_lines = FAST.geometry.hierarchy_config().l2.n_lines
        e = dirty_exposure(out, n_lines)
        assert e == pytest.approx(
            out.dirty_fraction * n_lines * out.cycles
        )

    def test_episode_stats_populated_when_cleaning(self):
        out = run_refs(
            "mesa",
            ProtectionConfig(cleaning_interval=1 << 18,
                             ecc_entries_per_set=1),
            FAST,
        )
        assert out.mean_dirty_episode_cycles > 0

    def test_expected_events_nonnegative(self):
        out = run_refs("swim", None, FAST)
        n_lines = FAST.geometry.hierarchy_config().l2.n_lines
        assert expected_uncorrectable(out, n_lines) >= 0.0

    def test_zero_exposure_zero_events(self):
        out = run_refs("mesa", None, FAST)
        object.__setattr__  # (RefRunOutput is not frozen; direct set ok)
        out.dirty_fraction = 0.0
        n_lines = FAST.geometry.hierarchy_config().l2.n_lines
        assert expected_uncorrectable(out, n_lines) == 0.0


class TestComparison:
    def test_scheme_reduces_exposure(self):
        res = exposure_comparison(FAST, benchmarks=["mesa", "parser"])
        for name, row in res.items():
            assert row["ours Mlc"] <= row["org Mlc"] + 1e-9, name
            assert row["exposure x"] >= 1.0, name

    def test_columns(self):
        res = exposure_comparison(FAST, benchmarks=["swim"])
        assert set(res["swim"]) == {
            "org Mlc", "ours Mlc", "exposure x", "events x",
        }
