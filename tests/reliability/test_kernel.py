"""The batched kernel: table codecs, pooled lines, exact stream parity.

The contract under test is stronger than "same distribution": under one
shard seed the batch kernel must consume the identical Mersenne-Twister
stream as the reference per-trial path and produce identical per-trial
outcomes — that is what makes ``--kernel`` a speed knob rather than a
results knob, and what keeps checkpoints kernel-portable.
"""

import itertools
import random
import time

import pytest

from repro.ecc import available_codecs
from repro.ecc.hamming import (
    SYNDROME_TABLES,
    SecDedCodec,
    _encode_reference,
    encode_word,
)
from repro.reliability.campaign import (
    CampaignConfig,
    ShardSpec,
    run_campaign,
    run_shard,
    shard_seed,
)
from repro.reliability.kernel import (
    POOL_SIZE,
    LinePool,
    run_trials_batch,
)
from repro.reliability.model import (
    SCHEMES,
    FaultModelConfig,
    _apply_data_masks,
    _build_line,
    _observe,
    plan_for,
    run_trial,
    scheme_policy,
)
from repro.experiments.pool import SweepEngine


def _engine(jobs=1):
    return SweepEngine(jobs=jobs, cache=False, progress=False)


class _InterruptingEngine(SweepEngine):
    """Delivers a KeyboardInterrupt before the Nth map_tasks call."""

    def __init__(self, interrupt_before_call: int):
        super().__init__(jobs=1, cache=False, progress=False)
        self.interrupt_before_call = interrupt_before_call
        self.calls = 0

    def map_tasks(self, func, items, phase="map"):
        self.calls += 1
        if self.calls >= self.interrupt_before_call:
            raise KeyboardInterrupt
        return super().map_tasks(func, items, phase=phase)


def _reference_shard(policy, config, n, rng, pool, sample_limit=0):
    """The reference per-trial loop in run_shard's aggregation shape."""
    outcomes = {}
    samples = []
    for trial in range(n):
        outcome, domain, dirty = run_trial(policy, config, rng, pool)
        per_domain = outcomes.setdefault(domain.value, {})
        per_domain[outcome.value] = per_domain.get(outcome.value, 0) + 1
        if len(samples) < sample_limit:
            samples.append((trial, domain.value, dirty, outcome.value))
    return outcomes, samples


class TestTableCodecs:
    """The lookup tables are exactly the loop-based codecs, tabulated."""

    def test_syndrome_tables_are_the_reference_encode_per_byte(self):
        for k in range(8):
            for value in (0, 1, 0x55, 0xAA, 0xFF):
                assert SYNDROME_TABLES[k][value] == _encode_reference(
                    value << (8 * k)
                )

    def test_encode_word_matches_reference_encode(self):
        rng = random.Random(0xC0DE)
        words = [0, 1, 1 << 63, (1 << 64) - 1]
        words += [rng.getrandbits(64) for _ in range(200)]
        for word in words:
            assert encode_word(word) == _encode_reference(word)

    def test_codec_still_round_trips_through_the_tables(self):
        codec = SecDedCodec()
        rng = random.Random(3)
        for _ in range(50):
            word = rng.getrandbits(64)
            check = codec.encode(word)
            corrupted = word ^ (1 << rng.randrange(64))
            result = codec.check(corrupted, check)
            assert result.outcome.name == "CORRECTED"
            assert result.data == word


class TestLinePool:
    def test_contents_are_deterministic_across_instances(self):
        a, b = LinePool(), LinePool()
        assert a.payload == b.payload

    def test_shared_is_memoised_per_shape(self):
        assert LinePool.shared() is LinePool.shared()
        assert LinePool.shared() is LinePool.shared(64, POOL_SIZE)
        assert LinePool.shared(32) is not LinePool.shared()

    def test_payload_bytes_bounds(self):
        pool = LinePool(size=2)
        assert len(pool.payload_bytes(1)) == pool.line_bytes
        with pytest.raises(IndexError):
            pool.payload_bytes(2)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LinePool(line_bytes=60)
        with pytest.raises(ValueError):
            LinePool(size=0)

    def test_batch_rejects_mismatched_pool(self):
        with pytest.raises(ValueError):
            run_trials_batch(
                scheme_policy("uniform-ecc"),
                FaultModelConfig(),
                1,
                random.Random(0),
                pool=LinePool(line_bytes=32),
            )


def _one_and_two_bit_masks(width):
    """Every 1- and 2-bit error pattern of a ``width``-bit field."""
    singles = [1 << bit for bit in range(width)]
    pairs = [
        (1 << a) | (1 << b) for a, b in itertools.combinations(range(width), 2)
    ]
    return singles + pairs


class TestClassifierMatchesLiveDecode:
    """The shared pattern classifier against a live ``LineProtection``.

    Every registered codec in the ECC slot × scheme × line state: all
    1- and 2-bit data patterns of one word, all 1- and 2-bit patterns
    of its ECC column, and single and neighbouring-word parity-column
    strikes — each XORed into a freshly built line and decoded by the
    reference kernel's own read path (``_observe`` with every line
    read), which must agree with :meth:`TrialPlan.classify`.
    """

    @pytest.mark.parametrize("codec", available_codecs())
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_every_small_pattern(self, codec, scheme):
        policy = scheme_policy(scheme)
        config = FaultModelConfig(read_fraction=1.0, ecc_codec=codec)
        plan = plan_for(policy, config)
        pool = LinePool.shared()
        rng = random.Random(17)
        for dirty in (False, True):
            strikes = [
                ("data", {0: mask}) for mask in _one_and_two_bit_masks(64)
            ]
            if plan.ecc_bits[dirty]:
                strikes += [
                    ("ecc", {0: mask})
                    for mask in _one_and_two_bit_masks(plan.ecc_bits[dirty])
                ]
            if plan.parity_bits[dirty]:
                strikes += [("parity", {0: 1}), ("parity", {0: 1, 1: 1})]
            for column, masks in strikes:
                line = _build_line(policy, dirty, config, rng, pool)
                if column == "data":
                    _apply_data_masks(line, masks)
                else:
                    target = (
                        line.ecc_checks
                        if column == "ecc"
                        else line.parity_checks
                    )
                    for word, mask in masks.items():
                        target[word] ^= mask
                live = _observe(line, dirty, config, rng)
                assert plan.classify(dirty, column, masks) is live, (
                    f"{codec} {scheme} dirty={dirty} {column} {masks}"
                )


class TestStreamParity:
    """Batch and reference kernels: same stream, same per-trial outcomes."""

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_outcomes_samples_and_final_rng_state_match(self, scheme):
        policy = scheme_policy(scheme)
        config = FaultModelConfig()
        pool = LinePool.shared()
        rng_ref = random.Random(20060301)
        rng_batch = random.Random(20060301)
        ref = _reference_shard(
            policy, config, 2000, rng_ref, pool, sample_limit=64
        )
        batch = run_trials_batch(
            policy, config, 2000, rng_batch, pool=pool, sample_limit=64
        )
        assert batch == ref
        # The strongest form of the contract: not one extra or missing
        # random draw anywhere across 2000 trials.
        assert rng_batch.getstate() == rng_ref.getstate()

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("dirty_fraction", [0.0, 1.0])
    @pytest.mark.parametrize("double_bit_fraction", [0.0, 1.0])
    @pytest.mark.parametrize("controller_refetch", [False, True])
    def test_every_forced_cell_matches(
        self, scheme, dirty_fraction, double_bit_fraction, controller_refetch
    ):
        # Forcing state and multiplicity to their corners walks every
        # (scheme, domain, dirty, flips) branch pair of both kernels.
        policy = scheme_policy(scheme)
        config = FaultModelConfig(
            dirty_fraction=dirty_fraction,
            double_bit_fraction=double_bit_fraction,
            controller_refetch=controller_refetch,
        )
        pool = LinePool.shared()
        rng_ref = random.Random(99)
        rng_batch = random.Random(99)
        ref = _reference_shard(policy, config, 600, rng_ref, pool)
        batch = run_trials_batch(policy, config, 600, rng_batch, pool=pool)
        assert batch == ref
        assert rng_batch.getstate() == rng_ref.getstate()

    def test_run_shard_kernels_are_interchangeable(self):
        for scheme in sorted(SCHEMES):
            spec = ShardSpec(
                scheme=scheme,
                index=3,
                trials=800,
                seed=shard_seed(11, scheme, 3),
                model=FaultModelConfig(),
                kernel="batch",
            )
            batch = run_shard(spec)
            reference = run_shard(
                ShardSpec(**dict(vars(spec), kernel="reference"))
            )
            assert batch.outcomes == reference.outcomes
            assert batch.samples == reference.samples


class TestCampaignKernels:
    def _config(self, **kwargs):
        defaults = dict(
            schemes=("uniform-ecc", "non-uniform", "parity-only"),
            trials=900,
            trials_per_shard=150,
            seed=5,
        )
        defaults.update(kwargs)
        return CampaignConfig(**defaults)

    @staticmethod
    def _aggregates(result):
        return {
            name: (s.trials, s.shards, dict(s.outcome_counts))
            for name, s in result.schemes.items()
        }

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            CampaignConfig(kernel="turbo")

    def test_campaign_aggregates_match_across_kernels(self):
        batch = run_campaign(self._config(kernel="batch"), engine=_engine())
        ref = run_campaign(
            self._config(kernel="reference"), engine=_engine()
        )
        assert self._aggregates(batch) == self._aggregates(ref)

    def test_batch_kernel_is_jobs_invariant(self):
        serial = run_campaign(self._config(), engine=_engine(jobs=1))
        parallel = run_campaign(self._config(), engine=_engine(jobs=2))
        assert self._aggregates(serial) == self._aggregates(parallel)

    def test_checkpoints_are_kernel_portable(self, tmp_path):
        # A checkpoint written under the reference kernel must resume
        # under the batch kernel bit-identically (and vice versa): the
        # kernel is excluded from the digest because shard results are
        # kernel-independent.
        path = tmp_path / "campaign.jsonl"
        interrupter = _InterruptingEngine(2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                self._config(kernel="reference", shards_per_round=2),
                engine=interrupter,
                checkpoint=str(path),
            )
        resumed = run_campaign(
            self._config(kernel="batch", shards_per_round=2),
            engine=_engine(),
            checkpoint=str(path),
        )
        assert resumed.resumed_shards > 0
        assert resumed.executed_shards > 0
        uninterrupted = run_campaign(
            self._config(shards_per_round=2), engine=_engine()
        )
        assert self._aggregates(resumed) == self._aggregates(uninterrupted)


@pytest.mark.slow
class TestThroughput:
    def test_batch_kernel_is_much_faster_than_reference(self):
        # The CI gate (scripts/check_bench.py) pins >=10x on a quiet
        # benchmark run; this in-suite sanity bound is looser so noisy
        # test machines don't flake.
        policy = scheme_policy("non-uniform")
        config = FaultModelConfig()
        pool = LinePool.shared()
        n = 20000
        start = time.perf_counter()
        _reference_shard(policy, config, n, random.Random(1), pool)
        reference_s = time.perf_counter() - start
        start = time.perf_counter()
        run_trials_batch(policy, config, n, random.Random(1), pool=pool)
        batch_s = time.perf_counter() - start
        assert batch_s * 4 < reference_s
