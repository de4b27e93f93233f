"""The fault model: domains, outcome taxonomy, trial lifecycle."""

import random

import pytest

from repro.core.policy import (
    NonUniformPolicy,
    UniformEccPolicy,
    UniformParityPolicy,
)
from repro.reliability.model import (
    DOMAIN_ORDER,
    FaultDomain,
    FaultModelConfig,
    SCHEMES,
    TrialOutcome,
    _inject_status,
    domain_bits,
    plan_for,
    run_trial,
    scheme_policy,
    stored_bits_per_line,
)


class TestConfigAndTaxonomy:
    def test_only_due_and_sdc_are_failures(self):
        failures = {o for o in TrialOutcome if o.is_failure}
        assert failures == {TrialOutcome.DUE, TrialOutcome.SDC}

    def test_scheme_registry(self):
        assert isinstance(scheme_policy("uniform-ecc"), UniformEccPolicy)
        assert isinstance(scheme_policy("non-uniform"), NonUniformPolicy)
        assert isinstance(scheme_policy("parity-only"), UniformParityPolicy)
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_policy("raid")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"line_bytes": 60},
            {"dirty_fraction": 1.5},
            {"double_bit_fraction": -0.1},
            {"read_fraction": 2.0},
            {"status_bits": 1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultModelConfig(**kwargs)


class TestDomainWeights:
    def test_bits_are_area_proportional(self):
        config = FaultModelConfig()
        bits = domain_bits(scheme_policy("uniform-ecc"), True, config)
        assert bits[FaultDomain.DATA] == 512
        assert bits[FaultDomain.TAG] == config.tag_bits + 1
        assert bits[FaultDomain.STATUS] == config.status_bits
        assert bits[FaultDomain.CHECK] > 0
        assert set(bits) == set(DOMAIN_ORDER)

    def test_non_uniform_stores_fewer_clean_check_bits(self):
        config = FaultModelConfig()
        ours = domain_bits(scheme_policy("non-uniform"), False, config)
        conv = domain_bits(scheme_policy("uniform-ecc"), False, config)
        assert ours[FaultDomain.CHECK] < conv[FaultDomain.CHECK]

    def test_stored_bits_average_over_state(self):
        config = FaultModelConfig()
        policy = scheme_policy("non-uniform")
        clean = stored_bits_per_line(policy, config, 0.0)
        dirty = stored_bits_per_line(policy, config, 1.0)
        mid = stored_bits_per_line(policy, config, 0.5)
        assert clean < mid < dirty
        assert mid == pytest.approx((clean + dirty) / 2)
        # Uniform ECC stores the same bits whatever the state.
        uniform = scheme_policy("uniform-ecc")
        assert stored_bits_per_line(
            uniform, config, 0.0
        ) == stored_bits_per_line(uniform, config, 1.0)


def _cfg(**kwargs):
    defaults = dict(read_fraction=1.0)
    defaults.update(kwargs)
    return FaultModelConfig(**defaults)


def _data_strike(scheme, dirty, flips, config):
    """Outcome of a 1- or 2-bit strike in one data word of a read line."""
    mask = 1 << 13 if flips == 1 else (1 << 13) | (1 << 42)
    plan = plan_for(scheme_policy(scheme), config)
    return plan.classify(dirty, "data", {2: mask})


class TestDataDomain:
    def test_secded_corrects_a_single_flip(self):
        out = _data_strike("uniform-ecc", True, 1, _cfg())
        assert out is TrialOutcome.CORRECTED

    def test_parity_on_dirty_line_is_a_due(self):
        out = _data_strike("parity-only", True, 1, _cfg())
        assert out is TrialOutcome.DUE

    def test_parity_on_clean_line_refetches(self):
        out = _data_strike("parity-only", False, 1, _cfg())
        assert out is TrialOutcome.REFETCHED

    def test_double_bit_on_dirty_ecc_line_is_a_due(self):
        out = _data_strike("uniform-ecc", True, 2, _cfg())
        assert out is TrialOutcome.DUE

    def test_controller_refetches_clean_detected_uncorrectable(self):
        # Same strike, both controller models: with the dirty bit
        # consulted the clean line refetches; without, it is lost.
        refetch = _data_strike("uniform-ecc", False, 2, _cfg())
        strict = _data_strike(
            "uniform-ecc", False, 2, _cfg(controller_refetch=False)
        )
        assert refetch is TrialOutcome.REFETCHED
        assert strict is TrialOutcome.DUE

    def test_unread_clean_line_masks_the_fault(self):
        # Every strike on an unread clean line's data is masked, even
        # under parity, which would otherwise refetch it.
        config = _cfg(read_fraction=0.0, dirty_fraction=0.0)
        policy = scheme_policy("parity-only")
        rng = random.Random(7)
        data = [
            outcome
            for outcome, domain, _ in (
                run_trial(policy, config, rng) for _ in range(200)
            )
            if domain is FaultDomain.DATA
        ]
        assert data
        assert set(data) == {TrialOutcome.MASKED}


class TestStatusDomain:
    def test_single_flip_is_parity_detected(self):
        config = _cfg()
        assert _inject_status(
            True, 1, config, random.Random(3)
        ) is TrialOutcome.DUE
        assert _inject_status(
            False, 1, config, random.Random(3)
        ) is TrialOutcome.REFETCHED

    def test_even_flips_on_dirty_state_bits_are_silent(self):
        # 2 of 3 status bits flip: any pair includes valid or dirty,
        # so a dirty line's modified data is silently at risk.
        out = _inject_status(True, 2, _cfg(), random.Random(3))
        assert out is TrialOutcome.SDC

    def test_even_flips_on_clean_line_mask(self):
        out = _inject_status(False, 2, _cfg(), random.Random(3))
        assert out is TrialOutcome.MASKED


class TestRunTrial:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_seeded_trials_replay_exactly(self, scheme):
        policy = scheme_policy(scheme)
        config = FaultModelConfig()
        first = [
            run_trial(policy, config, random.Random(1000 + i))
            for i in range(50)
        ]
        second = [
            run_trial(policy, config, random.Random(1000 + i))
            for i in range(50)
        ]
        assert first == second

    def test_trials_cover_the_domains(self):
        rng = random.Random(0)
        policy = scheme_policy("non-uniform")
        config = FaultModelConfig()
        seen = {run_trial(policy, config, rng)[1] for _ in range(2000)}
        assert seen == set(DOMAIN_ORDER)

    def test_dirty_fraction_extremes(self):
        rng = random.Random(0)
        config = FaultModelConfig(dirty_fraction=0.0)
        policy = scheme_policy("uniform-ecc")
        assert not any(
            run_trial(policy, config, rng)[2] for _ in range(200)
        )
        config = FaultModelConfig(dirty_fraction=1.0)
        assert all(run_trial(policy, config, rng)[2] for _ in range(200))
