"""The batched kernel against the exact nominal distribution.

``exact_nominal.exact_distribution`` gives P(domain, outcome) of one
nominal strike by walking every case of the model through live
``LineProtection``/``ProtectedTag`` objects.  Here the batched kernel's
per-(domain, outcome) counts over ``GATE_TRIALS`` trials must sit
within ``Z_BOUND`` binomial standard errors of those exact values, and
an outcome of exact probability zero must never occur.  The corner
grid forces every (state, multiplicity, controller) branch on its own,
so a wiring error in one of them cannot hide behind the default
mixture; the geometry grid does the same for the read derate, the
line size and the tag and status widths.  (The reference kernel replays the batched kernel's stream
trial for trial — ``test_kernel.py`` — so the gate covers it too.)
"""

import math
import random
from fractions import Fraction

import pytest

from repro.core.policy import RecoveryAction
from repro.reliability.kernel import LinePool, run_trials_batch
from repro.reliability.model import SCHEMES, FaultModelConfig, scheme_policy
from tests.reliability.exact_nominal import (
    exact_distribution,
    line_actions,
    status_outcomes,
    tag_outcomes,
)

#: |z| bound of the gate.  A one-sample binomial z beyond 5 has
#: probability ~6e-7 per comparison under the exact law, so the grid's
#: few hundred comparisons do not flake, while a rate that is wrong by
#: a few percent at 8000 trials lands far outside it.
Z_BOUND = 5.0
GATE_TRIALS = 8000

CORNERS = [
    FaultModelConfig(
        dirty_fraction=dirty_fraction,
        double_bit_fraction=double_bit_fraction,
        controller_refetch=controller_refetch,
    )
    for dirty_fraction in (0.0, 1.0)
    for double_bit_fraction in (0.0, 1.0)
    for controller_refetch in (False, True)
]


#: The knobs the corner grid leaves at their defaults, each moved on
#: its own: the read derate at both ends (so the masking branch is
#: all or nothing), a shorter line (fewer words, fewer check bits) and
#: other tag and status widths (other domain weights, and a status bit
#: beyond valid and dirty).
GEOMETRY = {
    "unread": FaultModelConfig(read_fraction=0.0),
    "all-read": FaultModelConfig(read_fraction=1.0),
    "line32": FaultModelConfig(line_bytes=32),
    "tag12-status4": FaultModelConfig(tag_bits=12, status_bits=4),
}

#: Stored check bits of a 64-byte line per (scheme, dirty): parity is
#: one bit per 64-bit word, SECDED eight, and the non-uniform scheme
#: keeps both on a dirty line.
CHECK_BITS = {
    ("parity-only", False): 8,
    ("parity-only", True): 8,
    ("uniform-ecc", False): 64,
    ("uniform-ecc", True): 64,
    ("non-uniform", False): 8,
    ("non-uniform", True): 72,
}


def _corner_id(config):
    return (
        f"dirty{config.dirty_fraction:g}-double{config.double_bit_fraction:g}"
        f"-refetch{int(config.controller_refetch)}"
    )


def _assert_matches_exact(scheme, config, n=GATE_TRIALS):
    exact = exact_distribution(scheme, config)
    counts, _ = run_trials_batch(
        scheme_policy(scheme), config, n, random.Random(1234),
        pool=LinePool.shared(config.line_bytes),
    )
    observed = {
        (domain, outcome): count
        for domain, per_domain in counts.items()
        for outcome, count in per_domain.items()
    }
    assert sum(observed.values()) == n
    for key in sorted(set(exact) | set(observed)):
        p = float(exact.get(key, 0))
        got = observed.get(key, 0)
        if p == 0.0 or p == 1.0:
            assert got == p * n, f"{scheme} {key}: {got}/{n}, exact p={p}"
            continue
        z = (got - n * p) / math.sqrt(n * p * (1.0 - p))
        assert abs(z) <= Z_BOUND, (
            f"{scheme} {key}: {got}/{n} vs exact p={p:.5f} (z={z:+.2f})"
        )


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
class TestBatchMatchesExact:
    @pytest.mark.parametrize("config", CORNERS, ids=_corner_id)
    def test_forced_corner_grid(self, scheme, config):
        _assert_matches_exact(scheme, config)

    def test_default_model(self, scheme):
        _assert_matches_exact(scheme, FaultModelConfig())

    @pytest.mark.parametrize("name", sorted(GEOMETRY))
    def test_geometry_and_masking(self, scheme, name):
        _assert_matches_exact(scheme, GEOMETRY[name])


class TestExactDistribution:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize(
        "config", CORNERS + [FaultModelConfig()], ids=_corner_id
    )
    def test_is_a_distribution(self, scheme, config):
        exact = exact_distribution(scheme, config)
        assert sum(exact.values()) == 1
        assert all(p > 0 for p in exact.values())

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("name", sorted(GEOMETRY))
    def test_geometry_is_a_distribution(self, scheme, name):
        exact = exact_distribution(scheme, GEOMETRY[name])
        assert sum(exact.values()) == 1
        assert all(p > 0 for p in exact.values())

    @pytest.mark.parametrize("dirty", (False, True), ids=("clean", "dirty"))
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_domain_marginals_follow_stored_bits(self, scheme, dirty):
        # 512 payload bits, a 24-bit tag plus its parity bit, three
        # status bits and the line's stored check bits.
        config = FaultModelConfig(dirty_fraction=float(dirty))
        weights = {
            "data": 512,
            "tag": 25,
            "status": 3,
            "check": CHECK_BITS[scheme, dirty],
        }
        total = sum(weights.values())
        marginal: dict = {}
        for (domain, _), p in exact_distribution(scheme, config).items():
            marginal[domain] = marginal.get(domain, 0) + p
        assert marginal == {
            domain: Fraction(bits, total) for domain, bits in weights.items()
        }

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_unread_clean_lines_mask_data_and_check(self, scheme):
        exact = exact_distribution(scheme, FaultModelConfig(
            dirty_fraction=0.0, read_fraction=0.0,
        ))
        for (domain, outcome), p in exact.items():
            if domain in ("data", "check"):
                assert outcome == "masked", (domain, outcome, p)
        # Tags and status bits are consulted at eviction as well.
        assert exact[("tag", "refetched")] > 0
        assert exact[("status", "refetched")] > 0

    def test_check_columns_follow_the_stored_codes(self):
        # Parity is one bit per 64-bit word, SECDED eight.
        assert line_actions("parity-only", True, 64)["check_bits"] == 8
        assert line_actions("uniform-ecc", False, 64)["check_bits"] == 64
        assert line_actions("non-uniform", False, 64)["check_bits"] == 8
        assert line_actions("non-uniform", True, 64)["check_bits"] == 72

    def test_secded_corrects_every_single_data_flip(self):
        for dirty in (False, True):
            assert line_actions("uniform-ecc", dirty, 64)["data", 1] == {
                RecoveryAction.CORRECTED_IN_PLACE: 1
            }

    def test_double_data_flips_cancel_once_in_64(self):
        # Two distinct flips in one word escape its parity bit.
        assert line_actions("parity-only", False, 64)["data", 2] == {
            RecoveryAction.CLEAN_READ: Fraction(1, 64),
            RecoveryAction.SILENT_CORRUPTION: Fraction(63, 64),
        }

    def test_tag_and_status_fields(self):
        assert tag_outcomes(True, 1, 24) == {"due": 1}
        assert tag_outcomes(False, 2, 24) == {"sdc": 1}
        # Any two of {valid, dirty, written} include valid or dirty.
        assert status_outcomes(True, 2, 3) == {"sdc": 1}
        assert status_outcomes(False, 2, 3) == {"masked": 1}
        assert status_outcomes(False, 1, 3) == {"refetched": 1}

    def test_controller_refetch_moves_clean_due_to_refetch(self):
        strict, lenient = (
            exact_distribution("uniform-ecc", FaultModelConfig(
                dirty_fraction=0.0, double_bit_fraction=1.0,
                controller_refetch=refetch,
            ))
            for refetch in (False, True)
        )
        assert strict.get(("data", "due"), 0) > 0
        assert ("data", "due") not in lenient
        assert lenient[("data", "refetched")] == strict[("data", "due")]
