"""The batched injection kernel: shared samplers + pattern classifier.

:func:`repro.reliability.model.run_trial` is the campaign's semantic
oracle: it builds a real :class:`~repro.core.policy.LineProtection`
(two codec objects, a full line encode, a full line decode) for every
strike — ~100 µs/trial, which bounds how tight a campaign's confidence
intervals can be (±0.1% needs ~10⁶ trials per scheme).

This module is the fast path.  Two observations make it possible:

1. **Outcomes are payload-independent.**  Every registered code is
   GF(2)-linear, so what a decoder sees is a pure function of the
   injected *error pattern*: syndrome(stored) = syndrome(error), and
   "repaired == golden" holds exactly when the correction cancels the
   error.  No per-trial line needs to exist.
2. **The pattern space is small.**  A strike's outcome depends only on
   the line state, the struck column and its per-word error masks, and
   those are a pure function of the strike's raw draws.  The samplers
   of :mod:`repro.reliability.scenarios` return the draws as one packed
   int (``data_error_draws`` / ``check_error_draws``), so the kernel
   looks ``(dirty, class, burst length, draws)`` up in the plan's
   outcome memo (:attr:`repro.reliability.model.TrialPlan.outcome_memo`)
   and builds and decodes the pattern (``data_masks`` / ``check_masks``
   + :meth:`~repro.reliability.model.TrialPlan.classify`) only the
   first time a draw key is seen.

**Exact parity with the reference path.**  ``run_trials_batch`` makes
every position draw through the same sampler functions as
``run_trial`` — the one definition of the draw order — and spends the
same pooled-line index draw; the class and burst-length rolls are
inlined as bisects over the thresholds ``draw_class`` /
``draw_burst_length`` loop over, one ``random()`` each.  So under one
shard seed the two kernels produce *identical* per-trial outcomes, not
merely the same distribution.  The campaign's checkpoints are therefore
kernel-portable: a file written under ``--kernel reference`` resumes
under ``--kernel batch`` bit-identically (pinned in
``tests/reliability/test_kernel.py``).  Tag and status strikes keep
``_inject_tag`` / ``_inject_status`` and their ``rng.sample`` draws.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.core.policy import ProtectionPolicy
from repro.reliability.scenarios import (
    check_error_draws,
    check_masks,
    data_error_draws,
    data_masks,
    flips_for,
)
from repro.reliability.model import (
    DOMAIN_ORDER,
    FaultModelConfig,
    TrialOutcome,
    _inject_status,
    _inject_tag,
    plan_for,
)

#: Pooled lines per :class:`LinePool`.  Part of the determinism
#: contract: both kernels draw one line index below ``POOL_SIZE`` per
#: data or check strike, so changing this constant changes every seeded
#: campaign.
POOL_SIZE = 256

#: Fixed seed for pool payload generation.  Pool contents are *not*
#: part of the per-trial random stream (outcomes are payload
#: independent); a constant keeps pools identical across processes.
POOL_SEED = 0x9E3779B97F4A7C15


class LinePool:
    """A fixed population of line payloads in one flat buffer.

    ``payload`` holds ``size`` lines back to back.  The reference kernel
    builds its live lines around them; the batched kernel only spends
    the index draw, which keeps the two kernels on one random stream.
    """

    _shared: Dict[Tuple[int, int], "LinePool"] = {}

    def __init__(
        self,
        line_bytes: int = 64,
        size: int = POOL_SIZE,
        seed: int = POOL_SEED,
    ) -> None:
        if line_bytes % 8 != 0 or line_bytes <= 0:
            raise ValueError("line_bytes must be a positive multiple of 8")
        if size < 1:
            raise ValueError("pool needs at least one line")
        self.line_bytes = line_bytes
        self.size = size
        self.payload = bytearray(
            random.Random(seed).randbytes(size * line_bytes)
        )

    @classmethod
    def shared(cls, line_bytes: int = 64, size: int = POOL_SIZE) -> "LinePool":
        """Process-wide memoised pool (workers build theirs once)."""
        key = (line_bytes, size)
        pool = cls._shared.get(key)
        if pool is None:
            pool = cls._shared[key] = cls(line_bytes=line_bytes, size=size)
        return pool

    def payload_bytes(self, index: int) -> bytes:
        """Copy of pooled line ``index``'s payload (for the slow path)."""
        if not 0 <= index < self.size:
            raise IndexError(f"pool index {index} out of range")
        start = index * self.line_bytes
        return bytes(self.payload[start : start + self.line_bytes])


def run_trials_batch(
    policy: ProtectionPolicy,
    config: FaultModelConfig,
    n: int,
    rng: random.Random,
    pool: Optional[LinePool] = None,
    sample_limit: int = 0,
) -> Tuple[Dict[str, Dict[str, int]], List[Tuple[int, str, bool, str]]]:
    """Run ``n`` trials through the pattern classifier; aggregate counts.

    Returns ``(outcomes, samples)`` in exactly the shapes
    :func:`repro.reliability.campaign.run_shard` builds: outcome counts
    keyed ``{domain.value: {outcome.value: count}}`` plus the first
    ``sample_limit`` per-trial tuples for event tracing.  Consumes
    ``rng`` in the same order as ``n`` calls of
    :func:`repro.reliability.model.run_trial`, so the two kernels are
    interchangeable under one seed.
    """
    if pool is None:
        pool = LinePool.shared(config.line_bytes)
    if pool.line_bytes != config.line_bytes:
        raise ValueError("pool line size does not match the fault model")
    plan = plan_for(policy, config)
    outcomes: Dict[str, Dict[str, int]] = {}
    samples: List[Tuple[int, str, bool, str]] = []
    rand = rng.random
    randbelow = rng._randbelow
    classify = plan.classify
    memo = plan.outcome_memo
    classes, class_bounds = plan.classes, plan.class_bounds
    class_total = plan.cdf[-1]
    n_classes = len(classes)
    length_bounds, lengths = plan.length_bounds, plan.lengths
    stride = plan.key_stride
    cums = (plan.cum[False], plan.cum[True])
    totals = (plan.total[False], plan.total[True])
    parity_bits = (plan.parity_bits[False], plan.parity_bits[True])
    ecc_bits = (plan.ecc_bits[False], plan.ecc_bits[True])
    dirty_fraction = config.dirty_fraction
    read_fraction = config.read_fraction
    line_bytes = config.line_bytes
    words = line_bytes // 8
    size = pool.size
    # Hoisted per-domain count dicts and enum .value strings: the enum
    # descriptor lookups are measurable at a few µs/trial budgets.
    per = {
        domain.value: outcomes.setdefault(domain.value, {})
        for domain in DOMAIN_ORDER
    }
    value_of = {out: out.value for out in TrialOutcome}
    masked = TrialOutcome.MASKED.value
    for trial in range(n):
        dirty = rand() < dirty_fraction
        cum = cums[dirty]
        roll = rand() * totals[dirty]
        # draw_class and draw_burst_length, inlined: one random() each
        # (the length only for burst classes), bisected against the
        # plan's thresholds.
        index = bisect_right(class_bounds, rand() * class_total)
        cls = classes[index]
        bounds = length_bounds[index]
        if bounds:
            length_index = bisect_right(bounds, rand())
            length = lengths[index][length_index]
            index += n_classes * length_index
        else:
            length = 0
        # The memo key's low digits (layout: TrialPlan.outcome_memo).
        base = index * 4 + dirty
        if roll < cum[0]:
            domain_value = "data"
            randbelow(size)  # pooled line index (outcome-inert)
            draws = data_error_draws(rng, cls, line_bytes)
            if not dirty and rand() >= read_fraction:
                key = masked
            else:
                memo_key = draws * stride + base
                key = memo.get(memo_key)
                if key is None:
                    key = memo[memo_key] = classify(
                        dirty, "data",
                        data_masks(cls, length, line_bytes, draws),
                    ).value
        elif roll < cum[1]:
            domain_value = "tag"
            key = value_of[
                _inject_tag(dirty, flips_for(cls, length), config, rng)
            ]
        elif roll < cum[2]:
            domain_value = "status"
            key = value_of[
                _inject_status(dirty, flips_for(cls, length), config, rng)
            ]
        else:
            domain_value = "check"
            randbelow(size)  # pooled line index (outcome-inert)
            draws = check_error_draws(
                rng, cls, words, parity_bits[dirty], ecc_bits[dirty]
            )
            if not dirty and rand() >= read_fraction:
                key = masked
            else:
                memo_key = draws * stride + base + 2
                key = memo.get(memo_key)
                if key is None:
                    key = memo[memo_key] = classify(
                        dirty,
                        *check_masks(
                            cls, length, words,
                            parity_bits[dirty], ecc_bits[dirty], draws,
                        ),
                    ).value
        per_domain = per[domain_value]
        per_domain[key] = per_domain.get(key, 0) + 1
        if len(samples) < sample_limit:
            samples.append((trial, domain_value, dirty, key))
    # Shards never saw some domain: drop its empty dict so aggregates
    # match the reference path's lazily-created mapping exactly.
    for domain_value in tuple(outcomes):
        if not outcomes[domain_value]:
            del outcomes[domain_value]
    return outcomes, samples


__all__ = [
    "POOL_SEED",
    "POOL_SIZE",
    "LinePool",
    "run_trials_batch",
]
