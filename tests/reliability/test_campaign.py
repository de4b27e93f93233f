"""The campaign engine: seeding, determinism, resume, stopping, telemetry."""

import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.pool import SweepEngine
from repro.reliability.campaign import (
    CampaignConfig,
    CampaignEngine,
    SAMPLES_PER_SHARD,
    ShardResult,
    ShardSpec,
    _SchemeState,
    run_campaign,
    run_shard,
    shard_seed,
)
from repro.reliability.checkpoint import CampaignCheckpoint, CheckpointError
from repro.reliability.model import FaultModelConfig, TrialOutcome
from repro.reliability.stopping import StoppingRule
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import EventTracer, validate_event


def _engine(jobs=1):
    return SweepEngine(jobs=jobs, cache=False, progress=False)


def _small_config(**kwargs):
    defaults = dict(
        schemes=("uniform-ecc", "non-uniform"),
        trials=600,
        trials_per_shard=100,
        seed=7,
    )
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


def _aggregates(result):
    """The comparable core of a CampaignResult."""
    return {
        name: (s.trials, s.shards, dict(s.outcome_counts))
        for name, s in result.schemes.items()
    }


class TestShardSeeding:
    def test_depends_on_every_coordinate(self):
        base = shard_seed(0, "uniform-ecc", 0)
        assert base != shard_seed(1, "uniform-ecc", 0)
        assert base != shard_seed(0, "non-uniform", 0)
        assert base != shard_seed(0, "uniform-ecc", 1)

    def test_is_stable_across_processes(self):
        # A fixed value: hash randomization or platform must not move it.
        assert shard_seed(0, "uniform-ecc", 0) == shard_seed(
            0, "uniform-ecc", 0
        )
        spec = ShardSpec(
            scheme="uniform-ecc",
            index=0,
            trials=50,
            seed=shard_seed(0, "uniform-ecc", 0),
            model=FaultModelConfig(),
        )
        assert run_shard(spec).outcomes == run_shard(spec).outcomes


class TestValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            CampaignConfig(schemes=())
        with pytest.raises(ValueError):
            CampaignConfig(trials=0)
        with pytest.raises(ValueError):
            CampaignConfig(trials_per_shard=0)
        with pytest.raises(ValueError):
            CampaignConfig(metric="nope")
        with pytest.raises(ValueError):
            CampaignConfig(schemes=("raid",))


class TestDeterminism:
    def test_jobs_do_not_change_the_result(self):
        config = _small_config()
        seq = run_campaign(config, engine=_engine(jobs=1))
        par = run_campaign(config, engine=_engine(jobs=2))
        assert _aggregates(seq) == _aggregates(par)

    def test_seed_changes_the_result(self):
        a = run_campaign(_small_config(seed=1), engine=_engine())
        b = run_campaign(_small_config(seed=2), engine=_engine())
        assert _aggregates(a) != _aggregates(b)

    def test_short_final_shard(self):
        config = _small_config(trials=250, trials_per_shard=100)
        result = run_campaign(config, engine=_engine())
        for s in result.schemes.values():
            assert s.trials == 250
            assert s.shards == 3
            assert s.stopped_by == "fixed"


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


class TestCheckpointResume:
    def _auto_config(self):
        # Target the high-variance 'corrected' rate (~0.77) so several
        # rounds are needed — there must be a round to interrupt.
        return CampaignConfig(
            schemes=("uniform-ecc",),
            trials=None,
            trials_per_shard=100,
            shards_per_round=4,
            stopping=StoppingRule(target_half_width=0.02, min_trials=400),
            metric="corrected",
            seed=11,
        )

    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        config = self._auto_config()
        baseline = run_campaign(config, engine=_engine())

        # Kill the campaign after its first round (second map call never
        # happens), then resume against the checkpoint.
        path = tmp_path / "campaign.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                config, engine=_InterruptingEngine(2), checkpoint=str(path)
            )
        resumed = run_campaign(config, engine=_engine(), checkpoint=str(path))

        assert resumed.resumed_shards == 4  # the completed first round
        assert resumed.executed_shards > 0
        assert _aggregates(resumed) == _aggregates(baseline)

    def test_fixed_mode_interrupt_keeps_completed_batches(self, tmp_path):
        # Fixed-trials campaigns run in round-sized batches so an
        # interrupt loses at most one batch, not the whole plan.
        config = _small_config(trials=800, shards_per_round=2)
        baseline = run_campaign(config, engine=_engine())

        path = tmp_path / "campaign.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                config, engine=_InterruptingEngine(3), checkpoint=str(path)
            )
        resumed = run_campaign(config, engine=_engine(), checkpoint=str(path))

        # Two batches of shards_per_round * n_schemes = 4 shards each
        # completed before the interrupt.
        assert resumed.resumed_shards == 8
        assert resumed.executed_shards == 8
        assert _aggregates(resumed) == _aggregates(baseline)

    def test_truncated_checkpoint_resumes_bit_identical(self, tmp_path):
        config = self._auto_config()
        path = tmp_path / "campaign.jsonl"
        baseline = run_campaign(config, engine=_engine(), checkpoint=str(path))

        # Simulate a SIGKILL mid-append: keep the header + 2 shards and
        # a torn fragment of the third.
        lines = path.read_text().splitlines()
        assert len(lines) >= 4
        path.write_text("\n".join(lines[:3]) + "\n" + lines[3][:17])
        resumed = run_campaign(config, engine=_engine(), checkpoint=str(path))

        assert resumed.resumed_shards == 2
        assert _aggregates(resumed) == _aggregates(baseline)

    def test_completed_checkpoint_replays_without_work(self, tmp_path):
        config = self._auto_config()
        path = tmp_path / "campaign.jsonl"
        first = run_campaign(config, engine=_engine(), checkpoint=str(path))
        again = run_campaign(config, engine=_engine(), checkpoint=str(path))
        assert again.executed_shards == 0
        assert again.resumed_shards == first.resumed_shards + (
            first.executed_shards
        )
        assert _aggregates(again) == _aggregates(first)

    def test_changed_config_refuses_the_checkpoint(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_campaign(
            _small_config(trials=200), engine=_engine(), checkpoint=str(path)
        )
        with pytest.raises(CheckpointError):
            run_campaign(
                _small_config(trials=200, seed=99),
                engine=_engine(),
                checkpoint=str(path),
            )

    def test_fit_knobs_do_not_invalidate_the_checkpoint(self, tmp_path):
        # raw_fit / n_lines only rescale the report; a checkpoint from
        # one quoting convention must resume under another.
        path = tmp_path / "campaign.jsonl"
        a = run_campaign(
            _small_config(trials=200), engine=_engine(), checkpoint=str(path)
        )
        b = run_campaign(
            _small_config(trials=200, raw_fit_per_mbit=500.0, n_lines=8192),
            engine=_engine(),
            checkpoint=str(path),
        )
        assert b.executed_shards == 0
        assert _aggregates(a) == _aggregates(b)


class TestAutoStopping:
    def test_stops_at_a_round_boundary_with_target_met(self):
        config = CampaignConfig(
            schemes=("uniform-ecc",),
            trials=None,
            trials_per_shard=100,
            shards_per_round=4,
            stopping=StoppingRule(target_half_width=0.05, min_trials=400),
            seed=3,
        )
        result = run_campaign(config, engine=_engine())
        s = result.schemes["uniform-ecc"]
        assert s.stopped_by == "target"
        assert s.trials % (100 * 4) == 0  # whole rounds only
        assert s.half_width <= 0.05

    def test_budget_stop(self):
        config = CampaignConfig(
            schemes=("parity-only",),
            trials=None,
            trials_per_shard=50,
            shards_per_round=2,
            # due rate ~0.5: +-0.005 needs ~40k trials, budget cuts in.
            stopping=StoppingRule(
                target_half_width=0.005, min_trials=100, max_trials=300
            ),
            metric="due",
            seed=3,
        )
        result = run_campaign(config, engine=_engine())
        s = result.schemes["parity-only"]
        assert s.stopped_by == "budget"
        assert s.trials == 300

    def test_failure_metric_counts_sdc_and_due(self):
        config = _small_config(metric="failure", trials=200)
        counts = {TrialOutcome.SDC: 3, TrialOutcome.DUE: 4,
                  TrialOutcome.MASKED: 5}
        assert config.metric_successes(counts) == 7


class TestTelemetry:
    def test_counters_and_events(self):
        tracer = EventTracer()
        registry = MetricsRegistry()
        config = _small_config(trials=200, schemes=("uniform-ecc",))
        result = run_campaign(
            config, engine=_engine(), tracer=tracer, registry=registry
        )
        s = result.schemes["uniform-ecc"]
        snapshot = registry.snapshot()["metrics"]
        assert snapshot["campaign.uniform-ecc.trials"] == 200
        assert snapshot["campaign.uniform-ecc.shards"] == s.shards
        for outcome, n in s.outcome_counts.items():
            assert snapshot[f"campaign.uniform-ecc.{outcome.value}"] == n

        events = tracer.events()
        assert len(events) == s.shards * min(SAMPLES_PER_SHARD, 100)
        for event in events:
            validate_event(event)
            assert event["scheme"] == "uniform-ecc"

    def test_estimate_matches_counts(self):
        config = _small_config(trials=400)
        result = run_campaign(config, engine=_engine())
        for s in result.schemes.values():
            e = s.estimate
            assert e.trials == s.trials
            assert sum(r.successes for r in e.rates.values()) == s.trials
            failures = s.outcome_counts.get(
                TrialOutcome.SDC, 0
            ) + s.outcome_counts.get(TrialOutcome.DUE, 0)
            assert e.avf.successes == failures
            # FIT scales the conditional rates linearly.
            assert e.fit_sdc[0] == pytest.approx(
                e.strike_fit * e.rates[TrialOutcome.SDC].value
            )


class TestCampaignEngineWiring:
    def test_accepts_checkpoint_instance(self, tmp_path):
        ckpt = CampaignCheckpoint(tmp_path / "c.jsonl")
        engine = CampaignEngine(
            _small_config(trials=100), engine=_engine(), checkpoint=ckpt
        )
        result = engine.run()
        assert result.total_trials == 200  # 100 per scheme
        assert (tmp_path / "c.jsonl").exists()


# -- running totals ------------------------------------------------------------


def _fold(state):
    """The from-scratch aggregate: every shard so far, in index order."""
    trials, counts = 0, {}
    for index in sorted(state.shard_results):
        result = state.shard_results[index]
        trials += result.trials
        for per_domain in result.outcomes.values():
            for name, n in per_domain.items():
                outcome = TrialOutcome(name)
                counts[outcome] = counts.get(outcome, 0) + n
    return trials, counts


def _nonzero(counts):
    return {outcome: n for outcome, n in counts.items() if n}


def _assert_totals_match_fold(state):
    trials, counts = _fold(state)
    assert state.trials == trials
    assert _nonzero(state.totals) == _nonzero(counts)


class _LonghandEngine(CampaignEngine):
    """Stopping checks and round events computed the longhand way: a
    fresh index-ordered fold of every shard at every round boundary."""

    def _check_auto_stop(self, state):
        if state.shards_done % self.config.shards_per_round:
            return
        trials, counts = _fold(state)
        if trials == 0:
            return
        successes = self.config.metric_successes(counts)
        rule = self.config.stopping
        if trials >= rule.max_trials:
            state.stopped_by = "budget"
        elif rule.should_stop(successes, trials):
            state.stopped_by = "target"

    def _emit_round(self, states):
        schemes = {}
        for scheme, state in states.items():
            trials, counts = _fold(state)
            successes = self.config.metric_successes(counts)
            schemes[scheme] = {
                "trials": trials,
                "shards": state.shards_done,
                "half_width": self.config.stopping.half_width(
                    successes, trials
                ),
                "stopped_by": state.stopped_by,
            }
        self._emit_progress({"type": "round", "schemes": schemes})


class _ShufflingEngine(SweepEngine):
    """Hands each round's results back in a random arrival order."""

    def __init__(self, seed):
        super().__init__(jobs=1, cache=False, progress=False)
        self.rng = random.Random(seed)

    def map_tasks(self, func, items, phase="map"):
        results = list(super().map_tasks(func, items, phase=phase))
        self.rng.shuffle(results)
        return results


class _FakeFabric:
    """A shard coordinator whose other replica is simulated in-process.

    Each lease keeps a random part of the offered shards for this
    replica; the rest are run "elsewhere" and published, some only on
    a later poll, and come back in a random order.
    """

    poll_interval = 0.0

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.published = {}

    def announce(self, specs):
        pass

    def heartbeat(self):
        pass

    def lease(self, specs):
        mine = []
        for spec in specs:
            key = (spec.scheme, spec.index)
            if key in self.published:
                continue
            if self.rng.random() < 0.5:
                mine.append(spec)
            elif self.rng.random() < 0.7:
                self.published[key] = run_shard(spec).as_record()
        return mine, []

    def complete(self, result):
        pass

    def completed(self, keys):
        ready = [self.published[key] for key in keys if key in self.published]
        self.rng.shuffle(ready)
        return ready


def _round_events(engine_cls, config, checkpoint, engine_seed, fabric_seed):
    events = []
    engine = engine_cls(
        config,
        engine=_ShufflingEngine(engine_seed),
        checkpoint=checkpoint,
        progress=events.append,
        coordinator=None if fabric_seed is None else _FakeFabric(fabric_seed),
    )
    result = engine.run()
    rounds = [event["schemes"] for event in events if event["type"] == "round"]
    return rounds, _aggregates(result)


@st.composite
def _campaigns(draw):
    schemes = draw(st.lists(
        st.sampled_from(["uniform-ecc", "non-uniform", "parity-only"]),
        min_size=1, max_size=3, unique=True,
    ))
    return CampaignConfig(
        schemes=tuple(schemes),
        trials=draw(st.one_of(st.none(), st.integers(50, 400))),
        trials_per_shard=draw(st.integers(10, 60)),
        shards_per_round=draw(st.integers(1, 4)),
        stopping=StoppingRule(
            target_half_width=draw(st.sampled_from([0.03, 0.05, 0.1])),
            min_trials=draw(st.integers(1, 100)),
            max_trials=draw(st.integers(100, 600)),
        ),
        metric=draw(st.sampled_from(["sdc", "due", "corrected", "failure"])),
        seed=draw(st.integers(0, 2**16)),
    )


class TestRunningTotals:
    """The O(1) running totals equal the from-scratch fold they replace."""

    @settings(max_examples=60, deadline=None)
    @given(
        absorbs=st.lists(
            st.tuples(
                st.integers(0, 6),
                st.dictionaries(
                    st.sampled_from(["data", "tag", "status", "check"]),
                    st.dictionaries(
                        st.sampled_from([o.value for o in TrialOutcome]),
                        st.integers(0, 50),
                        min_size=1,
                    ),
                ),
            ),
            max_size=25,
        )
    )
    def test_every_absorb_matches_the_fold(self, absorbs):
        state = _SchemeState("uniform-ecc")
        for index, outcomes in absorbs:
            trials = sum(sum(per.values()) for per in outcomes.values())
            state.absorb(ShardResult(
                scheme="uniform-ecc", index=index, trials=trials, seed=0,
                outcomes=outcomes,
            ))
            _assert_totals_match_fold(state)
        assert state.shards_done == len({index for index, _ in absorbs})

    def test_reabsorbed_index_replaces_its_counts(self):
        state = _SchemeState("uniform-ecc")
        first = ShardResult("uniform-ecc", 0, 5, 0, {"data": {"sdc": 5}})
        again = ShardResult("uniform-ecc", 0, 3, 0, {"tag": {"due": 3}})
        state.absorb(first)
        state.absorb(again)
        assert state.trials == 3
        assert _nonzero(state.totals) == {TrialOutcome.DUE: 3}

    @settings(max_examples=25, deadline=None)
    @given(
        config=_campaigns(),
        prefix=st.integers(0, 12),
        engine_seed=st.integers(0, 2**16),
        fabric_seed=st.one_of(st.none(), st.integers(0, 2**16)),
    )
    def test_round_events_match_the_longhand_fold(
        self, config, prefix, engine_seed, fabric_seed
    ):
        checks = [0]
        absorb = _SchemeState.absorb

        def checked_absorb(state, result):
            absorb(state, result)
            _assert_totals_match_fold(state)
            checks[0] += 1

        with tempfile.TemporaryDirectory() as tmp:
            # A checkpoint prefix to resume from: the first ``prefix``
            # shards of a complete run.
            full = Path(tmp) / "full.jsonl"
            run_campaign(config, engine=_engine(), checkpoint=str(full))
            lines = full.read_text().splitlines()[: 1 + prefix]
            for name in ("fast.jsonl", "longhand.jsonl"):
                (Path(tmp) / name).write_text("\n".join(lines) + "\n")
            with mock.patch.object(_SchemeState, "absorb", checked_absorb):
                fast = _round_events(
                    CampaignEngine, config, str(Path(tmp) / "fast.jsonl"),
                    engine_seed, fabric_seed,
                )
            longhand = _round_events(
                _LonghandEngine, config, str(Path(tmp) / "longhand.jsonl"),
                engine_seed, fabric_seed,
            )
        assert checks[0] > 0
        assert fast == longhand
