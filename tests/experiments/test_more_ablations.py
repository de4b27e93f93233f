"""Tests for the newer ablation studies (write buffer, cache size,
cleaning policy, energy, replacement)."""

import pytest

from repro import api
from repro.experiments import (
    RunConfig,
    ablate_cache_size,
    ablate_cleaning_policy,
    ablate_energy,
    ablate_replacement,
    ablate_write_buffer,
)
from repro.experiments.pool import SweepEngine

FAST = RunConfig(n_refs=8_000, warmup_refs=2_000)


class TestWriteBufferAblation:
    def test_coalescing_monotone_in_depth(self):
        res = ablate_write_buffer(FAST, benchmarks=["mesa"],
                                  depths=(1, 16))
        row = res["mesa"]
        assert row["coalesce@1"] <= row["coalesce@16"] + 1e-9

    def test_rates_in_percent_range(self):
        res = ablate_write_buffer(FAST, benchmarks=["swim"], depths=(4,))
        assert 0.0 <= res["swim"]["coalesce@4"] <= 100.0


class TestCacheSizeAblation:
    def test_resident_benchmark_fraction_halves(self):
        res = ablate_cache_size(FAST, benchmarks=["mesa"],
                                scale_factors=(1.0, 2.0))
        row = res["mesa"]
        # Fixed dirty footprint over doubled capacity: fraction ~halves.
        assert row["2x"] == pytest.approx(row["1x"] / 2, rel=0.25)

    def test_columns_labelled_by_factor(self):
        res = ablate_cache_size(FAST, benchmarks=["swim"],
                                scale_factors=(0.5, 1.0))
        assert set(res["swim"]) == {"0.5x", "1x"}


class TestCleaningPolicyAblation:
    def test_written_bit_beats_decay_on_read_hot_benchmarks(self):
        res = ablate_cleaning_policy(
            RunConfig(n_refs=20_000, warmup_refs=6_000),
            benchmarks=["mesa"],
        )
        row = res["mesa"]
        assert row["written dirty %"] < row["decay dirty %"]

    def test_keys(self):
        res = ablate_cleaning_policy(FAST, benchmarks=["swim"])
        assert set(res["swim"]) == {
            "written dirty %", "written wb %",
            "decay dirty %", "decay wb %",
        }


class TestEnergyAblation:
    def test_coding_energy_reported(self):
        res = ablate_energy(FAST, benchmarks=["swim"])
        row = res["swim"]
        assert row["conv coding uJ"] > 0
        assert row["ours coding uJ"] > 0
        assert row["conv uJ"] >= row["conv coding uJ"]

    def test_streaming_benchmark_saves_coding_energy(self):
        res = ablate_energy(FAST, benchmarks=["swim"])
        row = res["swim"]
        assert row["ours coding uJ"] < row["conv coding uJ"]


class TestBusWidthAblation:
    def test_loss_columns_per_width(self):
        from repro.experiments import ablate_bus_width

        res = ablate_bus_width(FAST, benchmarks=["swim"], widths=(8,),
                               n_insts=15_000)
        assert set(res["swim"]) == {"8B loss %"}

    def test_wider_bus_never_hurts_much(self):
        from repro.experiments import ablate_bus_width

        res = ablate_bus_width(FAST, benchmarks=["swim"], widths=(4, 16),
                               n_insts=20_000)
        row = res["swim"]
        assert row["16B loss %"] <= row["4B loss %"] + 1.0


class TestReplacementAblation:
    def test_all_policies_reported(self):
        res = ablate_replacement(FAST, benchmarks=["mesa"])
        assert set(res["mesa"]) == {"lru", "fifo", "random"}

    def test_values_are_percentages(self):
        res = ablate_replacement(FAST, benchmarks=["mcf"],
                                 policies=("lru",))
        assert 0.0 <= res["mcf"]["lru"] <= 100.0

    def test_random_policy_follows_the_seed(self):
        """The ``random`` L2 draws from the run's seed, as every cell's
        L2 does (a hand-built L2 once drew from seed 0 at any seed)."""
        from dataclasses import replace

        from repro.cache import MemoryHierarchy, SetAssociativeCache
        from repro.experiments.runner import run_refs_with_hierarchy

        config = RunConfig(n_refs=6000, warmup_refs=2000, seed=3)
        res = ablate_replacement(config, benchmarks=["mcf"])
        machine = config.geometry.hierarchy_config()
        l2 = replace(machine.l2, replacement="random")
        hierarchy = MemoryHierarchy(
            config=replace(machine, l2=l2),
            l2=SetAssociativeCache(l2, seed=3),
        )
        out = run_refs_with_hierarchy("mcf", hierarchy, config)
        assert res["mcf"]["random"] == 100.0 * out.dirty_fraction
        assert round(res["mcf"]["random"], 2) == 12.70


class TestEveryStudyRunsOnTheEngine:
    """Each registered study is a grid the engine runs, with the same
    document at one worker and at two."""

    @pytest.mark.parametrize("study", sorted(api.ABLATIONS))
    def test_study_runs_cells_identically_at_any_jobs(self, study):
        request = api.AblateRequest(
            study=study, benchmarks=("mesa", "mcf"), refs=600, warmup=200,
        )
        docs = []
        for jobs in (1, 2):
            engine = SweepEngine(jobs=jobs)
            docs.append(api.ablate(request, engine=engine).as_dict())
            assert engine.stats.cells > 0
        assert docs[0] == docs[1]

    def test_cells_of_one_study_carry_distinct_labels(self):
        """A cell's label names each study knob it sets away from Table
        1's machine, so a study's per-cell records tell its cells apart."""
        engine = SweepEngine()
        api.ablate(
            api.AblateRequest(
                study="replacement", benchmarks=("mcf",), refs=600,
                warmup=200,
            ),
            engine=engine,
        )
        labels = [record.label for record in engine.stats.records]
        assert labels == [
            "mcf:org", "mcf:org:l2_replacement=fifo",
            "mcf:org:l2_replacement=random",
        ]
