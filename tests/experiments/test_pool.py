"""Tests for the parallel sweep engine and its result cache."""

import dataclasses
import os
import pickle
import shutil
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

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

    def test_key_covers_every_geometry_field(self):
        geometry = FAST.geometry
        described = Cell("mesa", PROT, FAST).describe()["geometry"]
        assert set(described) == {
            f.name for f in dataclasses.fields(geometry)
        }
        base = cell_key(Cell("mesa", PROT, FAST))
        for knobs in (
            {"write_buffer_entries": 4}, {"l2_replacement": "fifo"},
            {"bus_width_bytes": 16}, {"l2_scale": 2.0},
        ):
            config = dataclasses.replace(
                FAST, geometry=dataclasses.replace(geometry, **knobs)
            )
            assert cell_key(Cell("mesa", PROT, config)) != base, knobs

    def test_tape_key_ignores_what_lies_below_the_l1(self):
        def cell(protection=PROT, variant="standard", **knobs):
            config = dataclasses.replace(
                FAST, geometry=dataclasses.replace(FAST.geometry, **knobs)
            )
            return Cell("mesa", protection, config, variant=variant)

        key = pool_mod.tape_key(cell())
        for other in (
            cell(None), cell(variant="decay"), cell(l2_replacement="random"),
            cell(l2_scale=2.0), cell(bus_width_bytes=4),
        ):
            assert pool_mod.tape_key(other) == key
        assert pool_mod.tape_key(cell(write_buffer_entries=4)) != key
        assert pool_mod.tape_key(Cell("mesa", PROT, FAST, mode="ipc")) is None
        # The key the engine groups by is the runner's tape memo key.
        from repro.experiments import runner

        pool_mod.execute_cell(cell(l2_scale=2.0))
        assert runner._LAST_TAPE[0] == key

    def test_key_covers_code_version(self):
        cell = Cell("mesa", PROT, FAST)
        assert cell_key(cell, version="aaaa") != cell_key(cell, version="bbbb")

    def test_bad_mode_and_variant_rejected(self):
        with pytest.raises(ValueError):
            Cell("mesa", PROT, FAST, mode="bogus")
        with pytest.raises(ValueError):
            Cell("mesa", PROT, FAST, variant="bogus")


def _rows(directory):
    """The store's rows as ``{key: raw blob}``, read over plain sqlite3."""
    conn = sqlite3.connect(str(directory / "fabric.db"))
    try:
        return dict(conn.execute("SELECT key, value FROM entries"))
    finally:
        conn.close()


def _overwrite(directory, key, blob):
    conn = sqlite3.connect(str(directory / "fabric.db"))
    with conn:
        conn.execute("UPDATE entries SET value = ? WHERE key = ?", (blob, key))
    conn.close()


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert list(_rows(tmp_path)) == ["ab" * 32]

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("cd" * 32) is None

    @pytest.mark.parametrize("blob", [
        b"\x80\x09",  # unsupported pickle protocol 9: ValueError
        b"cnosuchmod\nX\n.",  # a global of a missing module
        b"not a pickle",
        pickle.dumps({"x": list(range(50))})[:-7],  # truncated
    ], ids=["protocol-9", "missing-module", "garbage", "truncated"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, blob):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, [1, 2, 3])
        _overwrite(tmp_path, key, blob)
        assert cache.get(key) is None
        cache.put(key, "recomputed")  # the miss is stored over
        assert cache.get(key) == "recomputed"

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
        assert list(_rows(tmp_path)) == [key]
        assert all(p.name.startswith("fabric.db") for p in tmp_path.iterdir())


def _value(i):
    """The value the crash tests store under key ``i``: big enough to
    span several WAL pages, so a torn write would show."""
    return (i, bytes([i % 251]) * 6000)


def _key(i):
    return f"{i:064x}"


def _assert_whole_or_missing(directory, n):
    """Reopen the store: each of keys ``0..n-1`` is a full hit or a
    miss, and the store still takes a write.  Returns the hit count."""
    cache = ResultCache(directory)
    hits = 0
    for i in range(n):
        value = cache.get(_key(i))
        assert value is None or value == _value(i), i
        hits += value is not None
    cache.put("ff" * 32, "after the crash")
    assert cache.get("ff" * 32) == "after the crash"
    return hits


#: Run in a child process: puts keys 0, 1, 2, ... until killed.
_PUTTER = """
import sys
from repro.experiments.pool import ResultCache
cache = ResultCache(sys.argv[1])
i = 0
while True:
    cache.put(f"{i:064x}", (i, bytes([i % 251]) * 6000))
    i += 1
"""


class TestStoreCrashes:
    N = 40

    def test_truncated_wal_keeps_entries_whole(self, tmp_path):
        live = tmp_path / "live"
        cache = ResultCache(live)
        # An open reader keeps the puts in the WAL: the last connection
        # to close would otherwise checkpoint it into fabric.db.
        holder = sqlite3.connect(str(live / "fabric.db"))
        holder.execute("SELECT COUNT(*) FROM entries").fetchone()
        try:
            for i in range(self.N):
                cache.put(_key(i), _value(i))
            wal = (live / "fabric.db-wal").read_bytes()
            db = (live / "fabric.db").read_bytes()
        finally:
            holder.close()
        assert len(wal) > 32 + self.N * 6000  # every put is in the WAL

        hits = []
        cuts = [0, 32, 4096, len(wal) // 3, len(wal) // 2,
                len(wal) - 4096, len(wal) - 1, len(wal)]
        for cut in cuts:
            crashed = tmp_path / f"cut-{cut}"
            crashed.mkdir()
            (crashed / "fabric.db").write_bytes(db)
            (crashed / "fabric.db-wal").write_bytes(wal[:cut])
            hits.append(_assert_whole_or_missing(crashed, self.N))
        # Recovery keeps a prefix of the commits: more WAL, more hits.
        assert hits == sorted(hits)
        assert hits[0] == 0 and hits[-1] == self.N
        assert 0 < hits[len(cuts) // 2] < self.N

    def test_kill_9_mid_puts(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(pool_mod.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _PUTTER, str(tmp_path)], env=env
        )

        def rows():
            try:
                return len(_rows(tmp_path))
            except sqlite3.OperationalError:
                return 0  # the child has not created the table yet

        try:
            deadline = time.monotonic() + 60
            while rows() < self.N and child.poll() is None:
                assert time.monotonic() < deadline, "no puts landed"
                time.sleep(0.01)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        stored = rows()
        assert stored >= self.N
        assert _assert_whole_or_missing(tmp_path, stored + 50) >= stored


def _child_env():
    """This process's environment, with the tree under test importable."""
    env = dict(os.environ)
    src = str(Path(pool_mod.__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


class TestHeldConnection:
    """``connect_store`` holds one connection per (file, process,
    thread): never shared across threads or a fork, and never reading
    an old snapshot."""

    def test_get_and_put_from_two_threads(self, tmp_path):
        cache = ResultCache(tmp_path)
        conns, errors = {}, []

        def worker(t):
            try:
                for i in range(50):
                    cache.put(f"{t}-{i}", (t, i))
                    assert cache.get(f"{t}-{i}") == (t, i)
                    assert cache.get(f"{1 - t}-{i + 60}") is None
                conns[t] = pool_mod.connect_store(cache.file)
                assert pool_mod.connect_store(cache.file) is conns[t]
            except Exception as err:
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(t,)) for t in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert conns[0] is not conns[1]
        assert len(_rows(tmp_path)) == 100
        assert cache.get("0-49") == (0, 49) and cache.get("1-49") == (1, 49)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_opens_its_own(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("parent", 1)
        parent_conn = pool_mod.connect_store(cache.file)
        pid = os.fork()
        if pid == 0:  # the child: leave only through os._exit
            code = 1
            try:
                own = pool_mod.connect_store(cache.file)
                if own is not parent_conn and cache.get("parent") == 1:
                    cache.put("child", 2)
                    code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
        assert pool_mod.connect_store(cache.file) is parent_conn
        assert cache.get("child") == 2
        cache.put("parent", 3)
        assert cache.get("parent") == 3

    def test_put_from_another_process_is_seen(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("late") is None  # the held connection has read
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.experiments.pool import ResultCache; "
             "ResultCache(sys.argv[1]).put('late', 7)", str(tmp_path)],
            env=_child_env(), check=True, timeout=60,
        )
        assert cache.get("late") == 7

    def test_recreated_data_dir_reads_as_empty(self, tmp_path):
        directory = tmp_path / "data"
        cache = ResultCache(directory)
        cache.put("gone", 1)
        held = pool_mod.connect_store(cache.file)
        shutil.rmtree(directory)
        fresh = ResultCache(directory)
        assert fresh.get("gone") is None
        assert pool_mod.connect_store(fresh.file) is not held
        fresh.put("new", 2)
        assert cache.get("new") == 2  # same path, same new file


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

    def test_pair_makes_one_pass_of_l1_accesses(self, monkeypatch):
        """Stage A runs the L1s: an org/ours pair accesses the L1D once
        per load and store and the L1I once per fetch block, not once
        per member."""
        from repro.cache.cache import SetAssociativeCache
        from repro.experiments.runner import run_ipc_group

        counts = {"l1i": 0, "l1d": 0}
        access = SetAssociativeCache.access

        def counted(cache, addr, is_write, cycle):
            name = cache.config.name
            if name in counts:
                counts[name] += 1
            return access(cache, addr, is_write, cycle)

        monkeypatch.setattr(SetAssociativeCache, "access", counted)
        org, ours = run_ipc_group(
            "swim", [(None, "standard"), (PROT, "standard")], FAST,
            n_insts=1_500,
        )
        for out in (org, ours):
            l1d = out.snapshot["l1d"]
            assert counts["l1d"] == sum(
                l1d[name] for name in (
                    "read_hits", "read_misses", "write_hits", "write_misses",
                )
            )
            assert counts["l1d"] == out.result.loads + out.result.stores > 0
            assert out.snapshot["hierarchy"]["ifetches"] == counts["l1i"] > 0

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

    def test_reference_cells_share_a_unit_only_with_enough_tapes(self):
        """Cells with one tape key form one unit when there are at least
        ``jobs`` keys; with fewer, each goes alone so no worker idles."""
        small = RunConfig(n_refs=1_000, warmup_refs=200)

        def unit_sizes(jobs, benchmarks):
            cells = [
                Cell(bench, protection, small)
                for bench in benchmarks for protection in (None, PROT)
            ]
            engine = SweepEngine(jobs=jobs)
            sizes = []

            def inline(func, items):
                sizes.extend(len(unit) for unit in items)
                for i, item in enumerate(items):
                    yield pool_mod._map_indexed((func, i, item))

            engine._dispatch = inline
            assert engine.run_cells(cells) == [
                pool_mod.execute_cell(cell) for cell in cells
            ]
            return sizes

        assert unit_sizes(1, ("mcf",)) == [2]
        assert unit_sizes(2, ("mcf", "swim")) == [2, 2]
        assert unit_sizes(2, ("mcf",)) == [1, 1]
        assert unit_sizes(3, ("mcf", "swim")) == [1, 1, 1, 1]


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
