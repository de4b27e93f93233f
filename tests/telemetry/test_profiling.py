"""Tests for per-phase wall-time profiling."""

import pytest

from repro.telemetry.profiling import PhaseProfiler, PhaseRecord


class TestPhaseRecord:
    def test_events_per_s(self):
        rec = PhaseRecord("p", wall_s=2.0, events=10)
        assert rec.events_per_s == 5.0

    def test_zero_wall_is_safe(self):
        assert PhaseRecord("p").events_per_s == 0.0

    def test_as_dict(self):
        d = PhaseRecord("p", wall_s=1.0, events=3, calls=2).as_dict()
        assert d == {"wall_s": 1.0, "events": 3, "calls": 2,
                     "events_per_s": 3.0}


class TestPhaseProfiler:
    def test_add_accumulates(self):
        p = PhaseProfiler()
        p.add("x", 0.5, events=10)
        p.add("x", 0.5, events=10)
        rec = p.record("x")
        assert rec.wall_s == pytest.approx(1.0)
        assert rec.events == 20
        assert rec.calls == 2

    def test_phase_context_times_block(self):
        p = PhaseProfiler()
        with p.phase("work", events=4) as rec:
            rec.events += 1
        assert rec.calls == 1
        assert rec.events == 5
        assert rec.wall_s >= 0.0
        assert "work" in p

    def test_phase_times_even_on_exception(self):
        p = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with p.phase("bad"):
                raise RuntimeError
        assert p.record("bad").calls == 1

    def test_merge(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        a.add("x", 1.0, 5)
        b.add("x", 2.0, 7)
        b.add("y", 1.0, 1)
        a.merge(b)
        assert a.record("x").wall_s == pytest.approx(3.0)
        assert a.record("x").events == 12
        assert a.record("y").calls == 1

    def test_merge_since_a_mark_takes_only_later_work(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        b.add("x", 2.0, 7)
        b.add("idle", 1.0, 1)
        mark = b.mark()
        b.add("x", 0.5, 3)
        b.add("y", 1.0, 1)
        a.merge(b, since=mark)
        assert list(a.as_dict()) == ["x", "y"]
        assert a.record("x").wall_s == pytest.approx(0.5)
        assert a.record("x").events == 3
        assert a.record("x").calls == 1
        assert a.record("y").events == 1

    def test_summary(self):
        p = PhaseProfiler()
        assert "no phases" in p.summary()
        p.add("warmup", 1.0, 1000)
        text = p.summary()
        assert "warmup" in text and "1000 events" in text

    def test_as_dict_orders_by_creation(self):
        p = PhaseProfiler()
        p.add("b", 0.1)
        p.add("a", 0.1)
        assert list(p.as_dict()) == ["b", "a"]


class TestRunnerIntegration:
    def test_run_refs_profiles_phases(self):
        from repro.experiments import RunConfig
        from repro.experiments.runner import run_refs

        profiler = PhaseProfiler()
        config = RunConfig(n_refs=3_000, warmup_refs=1_000)
        out = run_refs("mesa", None, config, profiler=profiler)
        assert profiler.record("warmup").events == 1_000
        assert profiler.record("measure").events == out.refs
        assert profiler.record("measure").wall_s > 0

    def test_sweep_engine_profiles_execution(self):
        from repro.experiments import RunConfig
        from repro.experiments.pool import Cell, SweepEngine

        engine = SweepEngine()
        config = RunConfig(n_refs=2_000, warmup_refs=500)
        engine.run_cells([Cell("mesa", None, config)])
        assert engine.profiler.record("execute").events == 2_000
        assert "cache-lookup" in engine.profiler
        assert "profile:" in engine.summary()

    def test_run_ipc_profiles_record_and_replay(self):
        from repro.core import ProtectionConfig
        from repro.experiments import RunConfig
        from repro.experiments.runner import run_ipc, run_ipc_group

        config = RunConfig(n_refs=2_000, warmup_refs=500)
        full = ProtectionConfig(cleaning_interval=1 << 20,
                                ecc_entries_per_set=1)
        profiler = PhaseProfiler()
        out = run_ipc("mesa", full, config, n_insts=2_500, profiler=profiler)
        assert list(profiler.phases) == ["core-record", "core-replay-ours"]
        assert profiler.record("core-record").events == 2_500
        assert profiler.record("core-replay-ours").events == (
            out.result.instructions
        )

        profiler = PhaseProfiler()
        run_ipc_group(
            "mesa", [(None, "standard"), (full, "decay")], config,
            n_insts=2_500, profiler=profiler,
        )
        assert list(profiler.phases) == [
            "core-record", "core-replay-org", "core-replay-ours-decay",
        ]

    def test_api_ipc_hands_the_engine_phases_to_its_profiler(self):
        from repro import api
        from repro.experiments.pool import SweepEngine

        profiler = PhaseProfiler()
        api.ipc(api.IpcRequest(benchmark="swim", insts=2_000),
                engine=SweepEngine(), profiler=profiler)
        assert profiler.record("core-record").events == 2_000
        assert profiler.record("core-replay-org").events == 2_000
        assert profiler.record("core-replay-ours").events == 2_000
        assert profiler.record("execute").events == 4_000
