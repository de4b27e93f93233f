"""The vectorized injection kernel: whole-block draws + table gathers.

The batched kernel (:mod:`repro.reliability.kernel`) is bound to the
Mersenne-Twister draw order of :class:`random.Random` — that is what
buys its *bit-identical* parity with the reference path, and what caps
it at a few hundred thousand trials/s of Python-level loop.  This
module trades that bit-identity for throughput: it draws strike
positions, domains and MBU tails for whole trial blocks with
``numpy.random.Generator`` and classifies the blocks with vectorized
gathers, aggregating outcome counts without materializing a single
per-trial object.

What makes the gathers sound is the same GF(2)-linearity the batched
kernel exploits, pushed one step further.  Outcomes are payload
independent (syndrome(stored) = syndrome(error)), and the error pattern
of a strike lives inside one 64-bit codeword (or one 8-bit check
column) — so the *entire* decode collapses into finite outcome tables
indexed by flip position(s):

* ``data1[dirty][p]`` / ``data2[dirty][p1][p2]`` — outcome of a
  single/double flip at word-relative bit position(s) ``p`` in the data
  array, per line state;
* ``check1[dirty][c]`` / ``check2[dirty][c1][c2]`` — likewise for
  flips in the SECDED check column;
* scalar entries for parity-column, tag and status strikes, whose
  outcomes depend only on (state, multiplicity) or a tiny position
  predicate.

Every data and check table entry is filled from the batched kernel's
own pattern classifier
(:meth:`repro.reliability.model.TrialPlan.classify`), so the
deterministic part of this kernel is exact by construction — pinned by
enumeration tests in ``tests/reliability/test_vector.py``.  What cannot
be exact is the sampling: bulk drawing reorders the RNG stream, so
vector-vs-batch agreement is *distributional*, enforced by a
two-proportion z gate (:func:`repro.reliability.stopping.two_proportion_z`)
over a forced corner grid in the same test module.

numpy is an optional dependency (``pip install -e .[fast]``); this
module imports without it and raises a clean ``ReproError`` only when a
vector shard is actually requested.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.policy import ProtectionPolicy
from repro.reliability.model import (
    DOMAIN_ORDER,
    FaultModelConfig,
    TrialOutcome,
    plan_for,
)

try:  # pragma: no cover - trivially environment-dependent
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: Whether the optional ``[fast]`` extra (numpy) is importable here.
HAVE_NUMPY = np is not None

#: Fixed outcome code order; index = the uint8 stored in the tables.
OUTCOME_ORDER: Tuple[TrialOutcome, ...] = (
    TrialOutcome.MASKED,
    TrialOutcome.CORRECTED,
    TrialOutcome.REFETCHED,
    TrialOutcome.DUE,
    TrialOutcome.SDC,
)
_OUTCOME_CODE = {outcome: code for code, outcome in enumerate(OUTCOME_ORDER)}
_OUTCOME_VALUES = tuple(outcome.value for outcome in OUTCOME_ORDER)
_DOMAIN_VALUES = tuple(domain.value for domain in DOMAIN_ORDER)

#: Trials classified per block of bulk draws; bounds peak memory at a
#: few tens of MB while keeping the per-block numpy overhead amortized.
BLOCK_TRIALS = 1 << 18


def require_numpy() -> None:
    """Raise the facade's ``ReproError`` when numpy is unavailable."""
    if not HAVE_NUMPY:
        from repro.api import ReproError

        raise ReproError(
            "the 'vector' kernel needs numpy, which is not installed; "
            "install the optional extra (pip install -e .[fast]) or use "
            "--kernel batch"
        )


class _VectorPlan:
    """Per-(policy, config) outcome tables and sampling constants.

    Everything deterministic about a trial is folded in here once; the
    hot loop only draws uniforms and gathers.  Indexing convention:
    axis 0 is the line state (0 = clean, 1 = dirty) so ``table[di]``
    broadcasts over a block's dirty mask.
    """

    __slots__ = (
        "total", "cum0", "cum1", "cum2", "p_ecc",
        "data1", "data2", "check1", "check2",
        "check_parity", "tag1", "tag2",
    )

    def __init__(self, policy: ProtectionPolicy, config: FaultModelConfig):
        plan = plan_for(policy, config)
        states = (False, True)
        # Domain-choice thresholds, identical accumulation to the
        # shared trial plan (same floats, same order).
        self.total = np.array(
            [plan.total[d] for d in states], dtype=np.float64
        )
        cums = [plan.cum[d] for d in states]
        self.cum0 = np.array([c[0] for c in cums], dtype=np.float64)
        self.cum1 = np.array([c[1] for c in cums], dtype=np.float64)
        self.cum2 = np.array([c[2] for c in cums], dtype=np.float64)
        self.p_ecc = np.array(
            [
                (
                    plan.ecc_bits[d] / (plan.parity_bits[d] + plan.ecc_bits[d])
                    if plan.parity_bits[d] + plan.ecc_bits[d]
                    else 0.0
                )
                for d in states
            ],
            dtype=np.float64,
        )

        self.data1 = np.zeros((2, 64), dtype=np.uint8)
        self.data2 = np.zeros((2, 64, 64), dtype=np.uint8)
        self.check1 = np.zeros((2, 8), dtype=np.uint8)
        self.check2 = np.zeros((2, 8, 8), dtype=np.uint8)
        self.check_parity = np.zeros(2, dtype=np.uint8)
        self.tag1 = np.zeros(2, dtype=np.uint8)
        self.tag2 = np.zeros(2, dtype=np.uint8)
        for di, dirty in enumerate(states):

            def code(column: str, mask: int) -> int:
                # One struck word (word 0: outcomes are position-free).
                return _OUTCOME_CODE[plan.classify(dirty, column, {0: mask})]

            for p1 in range(64):
                self.data1[di, p1] = code("data", 1 << p1)
                for p2 in range(64):
                    self.data2[di, p1, p2] = code(
                        "data", (1 << p1) ^ (1 << p2)
                    )
            for c1 in range(8):
                self.check1[di, c1] = code("ecc", 1 << c1)
                for c2 in range(8):
                    self.check2[di, c1, c2] = code(
                        "ecc", (1 << c1) ^ (1 << c2)
                    )
            # A struck parity column: shadowed entirely when the line
            # recovers through ECC, otherwise detected stale parity.
            self.check_parity[di] = code("parity", 1)
            # Tag strikes (model._inject_tag + ProtectedTag.check): one
            # flip is parity-detected, two distinct flips alias silently.
            self.tag1[di] = _OUTCOME_CODE[
                TrialOutcome.DUE if dirty else TrialOutcome.REFETCHED
            ]
            self.tag2[di] = _OUTCOME_CODE[
                TrialOutcome.SDC
                if config.tag_bits >= 2
                else (TrialOutcome.DUE if dirty else TrialOutcome.REFETCHED)
            ]


_VECTOR_PLANS: Dict[Tuple[str, FaultModelConfig], _VectorPlan] = {}


def _vector_plan(
    policy: ProtectionPolicy, config: FaultModelConfig
) -> _VectorPlan:
    key = (policy.name, config)
    plan = _VECTOR_PLANS.get(key)
    if plan is None:
        plan = _VECTOR_PLANS[key] = _VectorPlan(policy, config)
    return plan


def run_trials_vector(
    policy: ProtectionPolicy,
    config: FaultModelConfig,
    n: int,
    seed: int,
    sample_limit: int = 0,
    block_trials: int = BLOCK_TRIALS,
) -> Tuple[Dict[str, Dict[str, int]], List[Tuple[int, str, bool, str]]]:
    """Run ``n`` trials in vectorized blocks; aggregate outcome counts.

    Returns ``(outcomes, samples)`` in exactly the shapes
    :func:`repro.reliability.kernel.run_trials_batch` produces, so
    :func:`repro.reliability.campaign.run_shard` can dispatch on the
    kernel name alone.  Deterministic per ``seed`` (one
    ``numpy.random.Generator`` stream, fixed draw order), but **not**
    stream-compatible with the other kernels: the same shard seed gives
    the same *distribution*, not the same trials.
    """
    require_numpy()
    if n < 0:
        raise ValueError("trial count must be non-negative")
    plan = _vector_plan(policy, config)
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(DOMAIN_ORDER) * len(OUTCOME_ORDER), dtype=np.int64)
    samples: List[Tuple[int, str, bool, str]] = []
    masked = np.uint8(_OUTCOME_CODE[TrialOutcome.MASKED])
    refetched = np.uint8(_OUTCOME_CODE[TrialOutcome.REFETCHED])
    due = np.uint8(_OUTCOME_CODE[TrialOutcome.DUE])
    sdc = np.uint8(_OUTCOME_CODE[TrialOutcome.SDC])
    done = 0
    while done < n:
        m = min(block_trials, n - done)
        # Per-trial state, domain and multiplicity (the same model the
        # scalar kernels sample trial by trial).
        dirty = rng.random(m) < config.dirty_fraction
        di = dirty.astype(np.intp)
        roll = rng.random(m) * plan.total[di]
        domain = (
            (roll >= plan.cum0[di]).astype(np.uint8)
            + (roll >= plan.cum1[di])
            + (roll >= plan.cum2[di])
        )
        double = rng.random(m) < config.double_bit_fraction

        # Data array: word-relative flip positions; an MBU's second
        # flip lands in the same codeword (p2 == p1 cancels to err 0).
        p1 = rng.integers(0, 64, m)
        p2 = rng.integers(0, 64, m)
        out_data = np.where(
            double, plan.data2[di, p1, p2], plan.data1[di, p1]
        )

        # Check array: parity column vs SECDED column in proportion to
        # their stored bits, then flip position(s) within the column.
        strike_ecc = rng.random(m) < plan.p_ecc[di]
        c1 = rng.integers(0, 8, m)
        c2 = rng.integers(0, 8, m)
        out_check = np.where(
            strike_ecc,
            np.where(double, plan.check2[di, c1, c2], plan.check1[di, c1]),
            plan.check_parity[di],
        )

        # Tag: outcome is a pure function of (state, multiplicity).
        out_tag = np.where(double, plan.tag2[di], plan.tag1[di])

        # Status: a double draws a distinct bit pair; silent harm only
        # when a dirty line's valid/dirty bit (indices 0/1) is struck.
        s = config.status_bits
        b1 = rng.integers(0, s, m)
        b2 = rng.integers(0, s - 1, m)
        b2 = b2 + (b2 >= b1)
        status_hit = dirty & ((b1 < 2) | (b2 < 2))
        out_status = np.where(
            double,
            np.where(status_hit, sdc, masked),
            np.where(dirty, due, refetched),
        )

        outcome = np.select(
            [domain == 0, domain == 1, domain == 2],
            [out_data, out_tag, out_status],
            default=out_check,
        ).astype(np.uint8)

        # Architectural masking: an unread *clean* line only hides data
        # and check strikes; tags/status are consulted at eviction too.
        unread = ~dirty & (rng.random(m) >= config.read_fraction)
        outcome = np.where(
            unread & ((domain == 0) | (domain == 3)), masked, outcome
        )

        counts += np.bincount(
            domain.astype(np.int64) * len(OUTCOME_ORDER) + outcome,
            minlength=counts.size,
        )
        if len(samples) < sample_limit:
            for i in range(min(sample_limit - len(samples), m)):
                samples.append(
                    (
                        done + i,
                        _DOMAIN_VALUES[int(domain[i])],
                        bool(dirty[i]),
                        _OUTCOME_VALUES[int(outcome[i])],
                    )
                )
        done += m

    outcomes: Dict[str, Dict[str, int]] = {}
    for d_idx, domain_value in enumerate(_DOMAIN_VALUES):
        per_domain: Dict[str, int] = {}
        for o_idx, outcome_value in enumerate(_OUTCOME_VALUES):
            count = int(counts[d_idx * len(OUTCOME_ORDER) + o_idx])
            if count:
                per_domain[outcome_value] = count
        if per_domain:
            outcomes[domain_value] = per_domain
    return outcomes, samples


__all__ = [
    "BLOCK_TRIALS",
    "HAVE_NUMPY",
    "OUTCOME_ORDER",
    "require_numpy",
    "run_trials_vector",
]
