"""Tests for the parallel sweep engine and its result cache."""

import dataclasses
import sys
import threading

import pytest

from repro.core import ProtectionConfig
from repro.experiments import (
    Cell,
    ResultCache,
    RunConfig,
    SweepEngine,
    cell_key,
    interval_sweep,
    run_refs,
)
from repro.experiments import pool as pool_mod
from repro.experiments.figures import figure8, ipc_loss

FAST = RunConfig(n_refs=6_000, warmup_refs=2_000)
PROT = ProtectionConfig(cleaning_interval=1 << 20, ecc_entries_per_set=1)


class TestCellKey:
    def test_key_is_stable(self):
        a = Cell("mesa", PROT, FAST)
        b = Cell("mesa", ProtectionConfig(1 << 20, 1), FAST)
        assert cell_key(a) == cell_key(b)

    def test_key_covers_benchmark(self):
        assert cell_key(Cell("mesa", PROT, FAST)) != cell_key(
            Cell("swim", PROT, FAST)
        )

    def test_key_covers_protection(self):
        unconstrained = ProtectionConfig(1 << 20, None)
        assert cell_key(Cell("mesa", PROT, FAST)) != cell_key(
            Cell("mesa", unconstrained, FAST)
        )
        assert cell_key(Cell("mesa", PROT, FAST)) != cell_key(
            Cell("mesa", None, FAST)
        )

    def test_key_covers_run_config(self):
        other = dataclasses.replace(FAST, seed=7)
        assert cell_key(Cell("mesa", PROT, FAST)) != cell_key(
            Cell("mesa", PROT, other)
        )

    def test_key_covers_mode_and_variant(self):
        base = cell_key(Cell("mesa", PROT, FAST))
        assert base != cell_key(Cell("mesa", PROT, FAST, mode="ipc"))
        assert base != cell_key(Cell("mesa", PROT, FAST, variant="decay"))

    def test_key_covers_code_version(self):
        cell = Cell("mesa", PROT, FAST)
        assert cell_key(cell, version="aaaa") != cell_key(cell, version="bbbb")

    def test_bad_mode_and_variant_rejected(self):
        with pytest.raises(ValueError):
            Cell("mesa", PROT, FAST, mode="bogus")
        with pytest.raises(ValueError):
            Cell("mesa", PROT, FAST, variant="bogus")


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("cd" * 32) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, [1, 2, 3])
        cache.path(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("12" * 32, 1)
        cache.put("34" * 32, 2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_concurrent_writers_of_one_key(self, tmp_path):
        # Overlapping jobs can compute and store the same cell at once:
        # every put must land whole, none may fail.
        cache = ResultCache(tmp_path)
        key = "56" * 32
        errors = []

        def writer(value):
            for _ in range(50):
                try:
                    cache.put(key, value)
                except Exception as err:
                    errors.append(err)

        threads = [
            threading.Thread(target=writer, args=([i] * 1000,))
            for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.get(key) in [[i] * 1000 for i in range(4)]
        assert [p.name for p in cache.path(key).parent.iterdir()] == [
            cache.path(key).name
        ]


class TestEngineSequential:
    def test_matches_direct_run_refs(self):
        direct = run_refs("mesa", PROT, FAST)
        pooled = SweepEngine().run_refs("mesa", PROT, FAST)
        assert direct == pooled

    def test_outputs_in_submission_order(self):
        cells = [Cell(b, None, FAST) for b in ("swim", "mesa", "gap")]
        outputs = SweepEngine().run_cells(cells)
        assert [o.benchmark for o in outputs] == ["swim", "mesa", "gap"]

    def test_empty_grid(self):
        assert SweepEngine().run_cells([]) == []

    def test_stats_accounting(self):
        engine = SweepEngine()
        engine.run_cells([Cell("mesa", None, FAST)])
        assert engine.stats.cells == 1
        assert engine.stats.executed == 1
        assert engine.stats.cached == 0
        assert engine.stats.refs == FAST.n_refs
        assert engine.stats.refs_per_s > 0
        assert "1 cells" in engine.summary()
        assert f", {FAST.n_refs} refs at " in engine.summary()

    def test_summary_names_each_kind_of_work(self):
        engine = SweepEngine()
        engine.run_cells([
            Cell("mesa", None, FAST),
            Cell("swim", None, FAST, mode="ipc", n_insts=1_500),
        ])
        line = engine.stats.summary()
        assert f", {FAST.n_refs} refs at " in line
        assert ", 1500 insts at " in line
        assert line.endswith(" insts/s per worker")


class TestEngineParallel:
    def test_jobs4_reproduces_sequential_bit_for_bit(self):
        """The acceptance-criterion determinism check at --jobs 4."""
        seq = interval_sweep("fp", FAST)
        par = interval_sweep("fp", FAST, engine=SweepEngine(jobs=4))
        assert seq.keys() == par.keys()
        for bench, row in seq.items():
            assert row.keys() == par[bench].keys()
            for label, res in row.items():
                assert res == par[bench][label], (bench, label)

    def test_parallel_figure8_matches(self):
        seq = figure8(FAST)
        par = figure8(FAST, engine=SweepEngine(jobs=2))
        assert seq == par

    def test_parallel_ipc_matches(self):
        seq = ipc_loss(FAST, suite="fp", n_insts=3_000)
        par = ipc_loss(FAST, suite="fp", n_insts=3_000,
                       engine=SweepEngine(jobs=2))
        assert seq == par

    def test_interleaved_cells_keep_order_and_per_cell_records(self):
        # Interleaved benchmarks, designs and an ipc cell, so workers'
        # tape memos hit and miss: outputs land by submission index and
        # every cell is recorded once.
        small = RunConfig(n_refs=2_000, warmup_refs=500)
        cells = [
            Cell(bench, protection, small)
            for protection in (None, PROT)
            for bench in ("mesa", "swim", "mcf")
        ]
        cells.insert(2, Cell("gap", PROT, small, mode="ipc", n_insts=1_500))
        seen = []
        par = SweepEngine(jobs=2, on_cell=seen.append).run_cells(cells)
        assert par == SweepEngine().run_cells(cells)
        assert sorted(r.label for r in seen) == sorted(c.label for c in cells)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)


class TestIpcFrontEndSharing:
    """ipc cells with one front end run as one work unit: the stream is
    generated and expanded once for all of them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of ``make_ref_stream`` and ``InstructionMixer.expand``
        calls in this process (the runner's reference-mode tape memo is
        emptied so it records anew)."""
        from repro.experiments import runner
        from repro.workloads.mix import InstructionMixer

        counts = {"streams": 0, "expands": 0}
        make_stream, expand = runner.make_ref_stream, InstructionMixer.expand

        def counted_stream(*args, **kwargs):
            counts["streams"] += 1
            return make_stream(*args, **kwargs)

        def counted_expand(mixer, refs):
            counts["expands"] += 1
            return expand(mixer, refs)

        monkeypatch.setattr(runner, "make_ref_stream", counted_stream)
        monkeypatch.setattr(InstructionMixer, "expand", counted_expand)
        monkeypatch.setattr(runner, "_LAST_TAPE", None)
        return counts

    def test_api_ipc_records_one_front_end_per_pair(self, calls):
        from repro import api

        engine = SweepEngine()
        for variant in ("standard", "silent-write"):
            api.ipc(
                api.IpcRequest(benchmark="swim", insts=2_000, variant=variant),
                engine=engine,
            )
        assert calls == {"streams": 2, "expands": 2}
        assert engine.stats.executed == 4

    def test_ipc_loss_records_one_front_end_per_benchmark(self, calls):
        rows = ipc_loss(FAST, suite="fp", n_insts=1_500)
        assert calls["streams"] == calls["expands"] == len(rows) > 1

    def test_autotune_ipc_point_still_expands_once(self, calls):
        from repro.autotune.explore import evaluate_point
        from tests.autotune.test_explore import grid, task

        point = grid()[0]
        metrics = evaluate_point(task(point, insts=1_500, measure_ipc=True))
        assert metrics.ipc > 0
        # One stream for the reference-mode tape, one for the core.
        assert calls == {"streams": 2, "expands": 1}

    def test_group_outputs_equal_solo_cells_at_any_jobs(self):
        small = RunConfig(n_refs=2_000, warmup_refs=500)
        cells = [
            Cell(bench, protection, small, mode="ipc", n_insts=1_500,
                 variant=variant)
            for bench in ("swim", "mcf")
            for protection, variant in (
                (None, "standard"), (PROT, "standard"),
                (PROT, "silent-write"),
            )
        ]
        cells.insert(3, Cell("mesa", PROT, small))
        seen = []
        engine = SweepEngine(on_cell=seen.append)
        grouped = engine.run_cells(cells)
        assert grouped == [pool_mod.execute_cell(cell) for cell in cells]
        assert grouped == SweepEngine(jobs=2).run_cells(cells)
        assert [r.label for r in seen] == [c.label for c in cells]
        # Stage A once per benchmark, stage B once per member.
        for phase in (
            "core-record", "core-replay-org", "core-replay-ours",
            "core-replay-ours-silent-write",
        ):
            assert engine.profiler.record(phase).events == 2 * 1_500

    def test_front_end_key(self):
        ipc = Cell("swim", PROT, FAST, mode="ipc")
        assert pool_mod.front_end_key(Cell("swim", PROT, FAST)) is None
        assert pool_mod.front_end_key(ipc) == pool_mod.front_end_key(
            Cell("swim", None, FAST, mode="ipc", variant="silent-write",
                 n_insts=3 * FAST.n_refs)
        )
        for other in (
            Cell("mcf", PROT, FAST, mode="ipc"),
            Cell("swim", PROT, dataclasses.replace(FAST, seed=1), mode="ipc"),
            Cell("swim", PROT, FAST, mode="ipc", n_insts=7),
        ):
            assert pool_mod.front_end_key(other) != pool_mod.front_end_key(ipc)


class TestEngineCaching:
    def test_second_invocation_served_from_cache(self, tmp_path):
        first = SweepEngine(cache=tmp_path)
        a = first.run_refs("mesa", PROT, FAST)
        assert first.stats.executed == 1

        second = SweepEngine(cache=tmp_path)
        b = second.run_refs("mesa", PROT, FAST)
        assert second.stats.cached == 1
        assert second.stats.executed == 0
        assert a == b

    def test_cache_hit_never_simulates(self, tmp_path, monkeypatch):
        SweepEngine(cache=tmp_path).run_refs("mesa", PROT, FAST)

        def boom(cell):
            raise AssertionError("cache hit should not simulate")

        monkeypatch.setattr(pool_mod, "execute_cell", boom)
        SweepEngine(cache=tmp_path).run_refs("mesa", PROT, FAST)

    def test_config_change_misses(self, tmp_path):
        engine = SweepEngine(cache=tmp_path)
        engine.run_refs("mesa", PROT, FAST)
        engine.run_refs("mesa", PROT, dataclasses.replace(FAST, seed=3))
        assert engine.stats.executed == 2
        assert engine.stats.cached == 0

    def test_no_cache_engine_reruns(self, tmp_path):
        engine = SweepEngine(cache=None)
        engine.run_refs("mesa", PROT, FAST)
        engine.run_refs("mesa", PROT, FAST)
        assert engine.stats.executed == 2


class TestVariants:
    def test_eager_variant_matches_reference(self):
        from repro.cache.hierarchy import MemoryHierarchy
        from repro.core.eager import EagerL2
        from repro.experiments.runner import run_refs_with_hierarchy

        hier_cfg = FAST.geometry.hierarchy_config()
        l2 = EagerL2(hier_cfg.l2, seed=FAST.seed)
        direct = run_refs_with_hierarchy(
            "mesa", MemoryHierarchy(config=hier_cfg, l2=l2), FAST
        )
        pooled = SweepEngine().run(Cell("mesa", None, FAST, variant="eager"))
        assert direct.dirty_fraction == pooled.dirty_fraction
        assert direct.writeback_fraction == pooled.writeback_fraction

    def test_variant_without_interval_rejected(self):
        with pytest.raises(ValueError):
            SweepEngine().run(Cell("mesa", None, FAST, variant="decay"))
