"""Scenario packs: presets, cross-kernel identity, digests, fallback.

Four contracts are pinned here:

1. **Nominal is frozen.**  The per-trial outcome stream *and* the
   final Mersenne-Twister state of the nominal model match golden
   SHA-256 digests recorded before the scenario engine existed — the
   scenario dispatch must never perturb historical seeds.
2. **Reference ≡ batch for every scenario × codec.**  Both kernels
   draw through the shared samplers, so their outcomes and final RNG
   state are bit-identical, not merely same-distribution.
3. **Checkpoints are scenario-guarded.**  A non-default scenario or
   codec changes the config digest (resume across scenarios is a hard
   error) while the nominal digest is unchanged from pre-scenario
   checkpoints.
4. **The vector kernel falls back to batch** off the nominal path,
   bit-identically.
"""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.pool import SweepEngine
from repro.reliability.campaign import (
    CampaignConfig,
    ShardSpec,
    run_campaign,
    run_shard,
    shard_seed,
)
from repro.reliability.checkpoint import CheckpointError
from repro.reliability.kernel import LinePool, run_trials_batch
from repro.reliability.model import (
    SCHEMES,
    FaultModelConfig,
    plan_for,
    run_trial,
    scheme_policy,
)
from repro.reliability.scenarios import (
    FaultClass,
    Scenario,
    _SCENARIOS,
    available_scenarios,
    get_scenario,
    register_scenario,
)


def _engine(jobs=1):
    return SweepEngine(jobs=jobs, cache=False, progress=False)


@pytest.fixture
def scenario_registry():
    """Snapshot/restore the global registry around registering tests."""
    saved = dict(_SCENARIOS)
    yield _SCENARIOS
    _SCENARIOS.clear()
    _SCENARIOS.update(saved)


class TestRegistry:
    def test_presets_present_nominal_first(self):
        assert available_scenarios() == [
            "nominal", "burst-heavy", "low-voltage", "rowcol",
        ]

    def test_unknown_scenario_error_enumerates(self):
        with pytest.raises(ValueError, match="known:.*nominal"):
            get_scenario("bogus")

    def test_preset_weights_sum_to_one(self):
        for name in available_scenarios():
            scenario = get_scenario(name)
            classes = scenario.resolve(0.05)
            assert abs(sum(c.weight for c in classes) - 1.0) < 1e-9

    def test_nominal_resolves_from_double_bit_fraction(self):
        classes = get_scenario("nominal").resolve(0.2)
        assert [(c.kind, c.weight) for c in classes] == [
            ("word2", 0.2), ("single", 0.8),
        ]

    def test_register_requires_name_and_weight_sum(self, scenario_registry):
        with pytest.raises(ValueError):
            register_scenario(Scenario(name="", description="x"))
        with pytest.raises(ValueError, match="sum to 1"):
            Scenario(
                name="half", description="x",
                classes=(FaultClass("single", 0.5),),
            )

    def test_fault_class_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultClass("diagonal", 1.0)
        with pytest.raises(ValueError, match="burst_pmf"):
            FaultClass("burst", 1.0)
        with pytest.raises(ValueError, match="sum to 1"):
            FaultClass("burst", 1.0, burst_pmf=((2, 0.5),))
        with pytest.raises(ValueError, match=">= 2"):
            FaultClass("burst", 1.0, burst_pmf=((1, 1.0),))
        with pytest.raises(ValueError, match="span_words"):
            FaultClass("column", 1.0, span_words=1)

    def test_model_config_validates_scenario_and_codec(self):
        with pytest.raises(ValueError):
            FaultModelConfig(scenario="bogus")
        with pytest.raises(ValueError):
            FaultModelConfig(ecc_codec="bogus")


#: Golden digests of 4000 nominal reference trials (outcome stream +
#: final RNG state), recorded before the scenario engine existed.
NOMINAL_GOLDEN = {
    "uniform-ecc":
        "bc8b9b62e5de7701db59b1e2bd37e7bdad06f35f9087a6847a57c8a852b4ea08",
    "non-uniform":
        "e1d5dc0c3c0396bbcaa7b7b0d352f80027305757425b915010c36fb4f6fd6182",
    "parity-only":
        "ab7372feed76e7d7651118ebcbd923e978668e8779a5605abd201973dc0454f7",
}


def _stream_digest(scheme, config, trials=4000):
    rng = random.Random(shard_seed(0, scheme, 0))
    pool = LinePool.shared(64)
    policy = scheme_policy(scheme)
    digest = hashlib.sha256()
    for _ in range(trials):
        outcome, domain, dirty = run_trial(policy, config, rng, pool)
        digest.update(f"{outcome.value}:{domain.value}:{int(dirty)};".encode())
    digest.update(repr(rng.getstate()).encode())
    return digest.hexdigest()


class TestNominalIsFrozen:
    @pytest.mark.parametrize("scheme", sorted(NOMINAL_GOLDEN))
    def test_reference_stream_matches_pre_scenario_golden(self, scheme):
        config = FaultModelConfig(dirty_fraction=0.4)
        assert _stream_digest(scheme, config) == NOMINAL_GOLDEN[scheme]

    def test_explicit_nominal_config_is_the_same_stream(self):
        assert _stream_digest(
            "uniform-ecc",
            FaultModelConfig(dirty_fraction=0.4, scenario="nominal",
                             ecc_codec="secded"),
        ) == NOMINAL_GOLDEN["uniform-ecc"]


def _reference_outcomes(policy, config, n, rng, pool):
    outcomes = {}
    for _ in range(n):
        outcome, domain, _ = run_trial(policy, config, rng, pool)
        per_domain = outcomes.setdefault(domain.value, {})
        per_domain[outcome.value] = per_domain.get(outcome.value, 0) + 1
    return outcomes


class TestReferenceBatchIdentity:
    """Shared samplers ⇒ identical streams, for every scenario/codec."""

    @pytest.mark.parametrize("scenario", [
        "nominal", "burst-heavy", "rowcol", "low-voltage",
    ])
    @pytest.mark.parametrize("codec", [
        "secded", "dected", "rs-symbol", "parity", "interleaved-parity",
    ])
    def test_outcomes_and_rng_state_identical(self, scenario, codec):
        for scheme in SCHEMES:
            config = FaultModelConfig(
                dirty_fraction=0.5, scenario=scenario, ecc_codec=codec
            )
            policy = scheme_policy(scheme)
            seed = shard_seed(3, scheme, 0)
            pool = LinePool.shared(64)
            rng_ref = random.Random(seed)
            ref = _reference_outcomes(policy, config, 400, rng_ref, pool)
            rng_batch = random.Random(seed)
            batch, _ = run_trials_batch(policy, config, 400, rng_batch)
            assert batch == ref
            assert rng_batch.getstate() == rng_ref.getstate()


class TestJobsInvariance:
    def test_burst_heavy_campaign_identical_at_any_jobs(self):
        config = CampaignConfig(
            schemes=("uniform-ecc", "non-uniform"),
            trials=600,
            trials_per_shard=100,
            seed=11,
            model=FaultModelConfig(
                scenario="burst-heavy", ecc_codec="dected"
            ),
        )
        seq = run_campaign(config, engine=_engine(jobs=1))
        par = run_campaign(config, engine=_engine(jobs=4))
        for name in config.schemes:
            assert (
                seq.schemes[name].outcome_counts
                == par.schemes[name].outcome_counts
            )
            assert seq.schemes[name].trials == par.schemes[name].trials


class TestCheckpointDigests:
    def _config(self, **model_kwargs):
        return CampaignConfig(
            schemes=("uniform-ecc",),
            trials=200,
            trials_per_shard=100,
            seed=5,
            model=FaultModelConfig(**model_kwargs),
        )

    def test_nominal_describe_omits_scenario_keys(self):
        for entry in self._config().describe()["model"].values():
            assert "scenario" not in entry
            assert "ecc_codec" not in entry

    def test_non_default_describe_includes_them(self):
        config = self._config(scenario="rowcol", ecc_codec="rs-symbol")
        for entry in config.describe()["model"].values():
            assert entry["scenario"] == "rowcol"
            assert entry["ecc_codec"] == "rs-symbol"

    def test_scenario_change_refuses_the_checkpoint(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_campaign(
            self._config(scenario="burst-heavy"),
            engine=_engine(),
            checkpoint=str(path),
        )
        with pytest.raises(CheckpointError):
            run_campaign(
                self._config(), engine=_engine(), checkpoint=str(path)
            )
        with pytest.raises(CheckpointError):
            run_campaign(
                self._config(scenario="rowcol"),
                engine=_engine(),
                checkpoint=str(path),
            )

    def test_codec_change_refuses_the_checkpoint(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_campaign(
            self._config(ecc_codec="dected"),
            engine=_engine(),
            checkpoint=str(path),
        )
        with pytest.raises(CheckpointError):
            run_campaign(
                self._config(), engine=_engine(), checkpoint=str(path)
            )

    def test_same_scenario_resumes(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        config = self._config(scenario="low-voltage", ecc_codec="dected")
        first = run_campaign(config, engine=_engine(), checkpoint=str(path))
        again = run_campaign(config, engine=_engine(), checkpoint=str(path))
        assert again.executed_shards == 0
        assert (
            first.schemes["uniform-ecc"].outcome_counts
            == again.schemes["uniform-ecc"].outcome_counts
        )


class TestVectorFallback:
    def _spec(self, kernel, **model_kwargs):
        return ShardSpec(
            scheme="uniform-ecc",
            index=0,
            trials=400,
            seed=shard_seed(0, "uniform-ecc", 0),
            model=FaultModelConfig(**model_kwargs),
            kernel=kernel,
        )

    def test_vector_falls_back_to_batch_for_scenarios(self):
        vector = run_shard(
            self._spec("vector", scenario="burst-heavy")
        )
        batch = run_shard(self._spec("batch", scenario="burst-heavy"))
        assert vector.outcomes == batch.outcomes

    def test_vector_falls_back_for_non_default_codec(self):
        vector = run_shard(self._spec("vector", ecc_codec="dected"))
        batch = run_shard(self._spec("batch", ecc_codec="dected"))
        assert vector.outcomes == batch.outcomes

    def test_nominal_vector_stays_vector(self):
        pytest.importorskip("numpy")
        # The nominal vector stream is deliberately *different* from
        # the batch stream (bulk draws reorder the RNG): identical
        # outcomes would mean the fallback fired where it must not.
        vector = run_shard(self._spec("vector"))
        batch = run_shard(self._spec("batch"))
        assert vector.outcomes != batch.outcomes


class TestBerScale:
    def test_low_voltage_scales_fit_only(self, scenario_registry):
        """ber_scale multiplies FIT quoting, not the trial stream."""
        heavy = get_scenario("low-voltage")
        register_scenario(Scenario(
            name="low-voltage-1x",
            description="low-voltage mixture without the rate scaling",
            classes=heavy.classes,
            ber_scale=1.0,
        ))
        results = {}
        for name in ("low-voltage", "low-voltage-1x"):
            results[name] = run_campaign(
                CampaignConfig(
                    schemes=("uniform-ecc",),
                    trials=400,
                    trials_per_shard=100,
                    seed=9,
                    model=FaultModelConfig(scenario=name),
                ),
                engine=_engine(),
            )
        scaled = results["low-voltage"].schemes["uniform-ecc"]
        plain = results["low-voltage-1x"].schemes["uniform-ecc"]
        # Identical class mixture ⇒ identical trials...
        assert scaled.outcome_counts == plain.outcome_counts
        # ...but 4x the quoted failure rates.
        assert heavy.ber_scale == 4.0
        assert scaled.estimate.fit_sdc[0] == pytest.approx(
            4.0 * plain.estimate.fit_sdc[0]
        )
        assert scaled.estimate.fit_due[0] == pytest.approx(
            4.0 * plain.estimate.fit_due[0]
        )


# -- memoised-kernel stream parity on random scenarios -------------------------


def _weights(draw, n):
    """``n`` positive weights summing to 1 (within float rounding)."""
    raw = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    return [w / sum(raw) for w in raw]


@st.composite
def _fault_classes(draw):
    kinds = draw(st.lists(
        st.sampled_from(["single", "word2", "burst", "column"]),
        min_size=1, max_size=4,
    ))
    classes = []
    for kind, weight in zip(kinds, _weights(draw, len(kinds))):
        if kind == "burst":
            # Up to 160 adjacent bits: longer than a short line, so
            # bursts wrap past the line end and over themselves.
            lengths = draw(st.lists(
                st.integers(2, 160), min_size=1, max_size=4,
            ))
            pmf = tuple(zip(lengths, _weights(draw, len(lengths))))
            classes.append(FaultClass(kind, weight, burst_pmf=pmf))
        elif kind == "column":
            # Spans beyond the line's word count wrap and are clipped.
            classes.append(FaultClass(
                kind, weight, span_words=draw(st.integers(2, 20)),
            ))
        else:
            classes.append(FaultClass(kind, weight))
    return tuple(classes)


def _register_random_scenario(classes):
    # Plans are cached by scenario *name*: name each mixture uniquely.
    name = "random-" + hashlib.sha256(repr(classes).encode()).hexdigest()[:16]
    register_scenario(Scenario(
        name=name, description="hypothesis mixture", classes=classes,
    ))
    return name


_LINE_BYTES = st.integers(1, 16).map(lambda words: 8 * words)


class TestMemoisedKernelStreamParity:
    """The draw-keyed outcome memo never changes a trial or a draw."""

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        classes=_fault_classes(),
        line_bytes=_LINE_BYTES,
        scheme=st.sampled_from(sorted(SCHEMES)),
        codec=st.sampled_from(["secded", "dected", "rs-symbol", "parity"]),
        dirty_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        read_fraction=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32),
    )
    def test_batch_equals_reference(
        self, scenario_registry, classes, line_bytes, scheme, codec,
        dirty_fraction, read_fraction, seed,
    ):
        config = FaultModelConfig(
            line_bytes=line_bytes,
            dirty_fraction=dirty_fraction,
            read_fraction=read_fraction,
            scenario=_register_random_scenario(classes),
            ecc_codec=codec,
        )
        policy = scheme_policy(scheme)
        pool = LinePool.shared(line_bytes)
        trials = 300
        rng_ref = random.Random(seed)
        ref_outcomes, ref_samples = {}, []
        for trial in range(trials):
            outcome, domain, dirty = run_trial(policy, config, rng_ref, pool)
            per_domain = ref_outcomes.setdefault(domain.value, {})
            per_domain[outcome.value] = per_domain.get(outcome.value, 0) + 1
            ref_samples.append((trial, domain.value, dirty, outcome.value))
        # Twice through the batch kernel: the second run is served from
        # the memo the first one filled.
        for _ in range(2):
            rng_batch = random.Random(seed)
            outcomes, samples = run_trials_batch(
                policy, config, trials, rng_batch, sample_limit=trials,
            )
            assert outcomes == ref_outcomes
            assert samples == ref_samples
            assert rng_batch.getstate() == rng_ref.getstate()

    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        classes=_fault_classes(),
        line_bytes=st.lists(_LINE_BYTES, min_size=2, max_size=2, unique=True),
        seed=st.integers(0, 2**32),
    )
    def test_line_sizes_never_share_memo_entries(
        self, scenario_registry, classes, line_bytes, seed
    ):
        name = _register_random_scenario(classes)
        policy = scheme_policy("uniform-ecc")
        configs = [
            FaultModelConfig(line_bytes=size, scenario=name)
            for size in line_bytes
        ]
        plans = [plan_for(policy, config) for config in configs]
        assert plans[0].outcome_memo is not plans[1].outcome_memo
        run_trials_batch(policy, configs[0], 200, random.Random(seed))
        before = dict(plans[0].outcome_memo)
        run_trials_batch(policy, configs[1], 200, random.Random(seed))
        assert plans[0].outcome_memo == before
