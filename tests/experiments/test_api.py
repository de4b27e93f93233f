"""The typed facade: requests, keys, parity with the CLI, errors."""

import json

import pytest

from repro import api
from repro.cli import main
from repro.experiments.pool import Cell, SweepEngine, cell_key
from repro.experiments.runner import RunConfig
from repro.reliability import run_campaign
from repro.telemetry.profiling import PhaseProfiler


def _engine():
    return SweepEngine(jobs=1, cache=False, progress=False)


QUICK = dict(refs=3000, warmup=1000)


class TestRequestPlumbing:
    def test_from_dict_round_trips(self):
        request = api.RunRequest(benchmark="swim", **QUICK)
        rebuilt = api.request_from_dict(api.RunRequest, request.as_dict())
        assert rebuilt == request

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(api.ReproError, match="unknown RunRequest"):
            api.request_from_dict(api.RunRequest, {"benchmrk": "swim"})

    def test_from_dict_converts_json_lists_to_tuples(self):
        request = api.request_from_dict(
            api.ReliabilityRequest, {"schemes": ["non-uniform"]}
        )
        assert request.schemes == ("non-uniform",)

    def test_run_key_is_the_sweep_cache_key(self):
        # Service-level dedupe and the on-disk result cache must agree
        # about what "the same run" means.
        request = api.RunRequest(benchmark="swim", **QUICK)
        cell = Cell(
            "swim",
            request.protection_config(),
            RunConfig(n_refs=3000, warmup_refs=1000, seed=0),
        )
        assert api.request_key("run", request) == cell_key(cell)

    def test_keys_separate_kinds_and_payloads(self):
        run_key = api.request_key("run", api.RunRequest(**QUICK))
        assert run_key != api.request_key("ipc", api.IpcRequest())
        assert run_key != api.request_key(
            "run", api.RunRequest(benchmark="swim", **QUICK)
        )

    def test_execute_dispatches_by_kind(self):
        response = api.execute("area", api.AreaRequest())
        assert isinstance(response, api.AreaResponse)
        with pytest.raises(api.ReproError, match="unknown request kind"):
            api.execute("sweep-the-world", api.AreaRequest())
        with pytest.raises(api.ReproError, match="must be RunRequest"):
            api.execute("run", api.AreaRequest())


class TestFacadeResults:
    def test_run_matches_cli_json(self, capsys):
        rc = main([
            "run", "--benchmark", "swim", "--refs", "3000",
            "--warmup", "1000", "--no-cache", "--format", "json",
        ])
        assert rc == 0
        cli_doc = json.loads(capsys.readouterr().out)
        direct = api.run(
            api.RunRequest(benchmark="swim", **QUICK), engine=_engine()
        )
        assert cli_doc == json.loads(json.dumps(direct.as_dict()))

    def test_ipc_matches_cli_json(self, capsys):
        rc = main([
            "ipc", "--benchmark", "swim", "--insts", "4000", "--no-cache",
            "--format", "json",
        ])
        assert rc == 0
        cli_doc = json.loads(capsys.readouterr().out)
        direct = api.ipc(
            api.IpcRequest(benchmark="swim", insts=4000),
            engine=_engine(),
        )
        assert cli_doc == json.loads(json.dumps(direct.as_dict()))
        assert cli_doc["ipc_loss_pct"] == pytest.approx(
            100 * (direct.org_ipc - direct.ours_ipc) / direct.org_ipc
        )

    def test_reused_engine_reports_only_this_calls_phases(self):
        engine = _engine()
        request = api.IpcRequest(benchmark="swim", insts=2000)
        first, second = PhaseProfiler(), PhaseProfiler()
        api.ipc(request, engine=engine, profiler=first)
        api.ipc(request, engine=engine, profiler=second)
        assert first.as_dict().keys() == second.as_dict().keys()
        for profiler in (first, second):
            assert profiler.record("core-record").events == 2000
            assert profiler.record("execute").events == 2 * 2000
            assert profiler.record("cache-lookup").calls == 1
        # The engine itself keeps the running total of both calls.
        assert engine.profiler.record("core-record").events == 4000

    def test_reused_engine_run_reports_only_this_call(self):
        engine = _engine()
        request = api.RunRequest(benchmark="swim", **QUICK)
        api.run(request, engine=engine)
        profiler = PhaseProfiler()
        api.run(request, engine=engine, profiler=profiler)
        assert profiler.record("execute").calls == 1
        assert profiler.record("execute").events == QUICK["refs"]

    def test_area_matches_cli_json(self, capsys):
        assert main(["area", "--format", "json"]) == 0
        cli_doc = json.loads(capsys.readouterr().out)
        direct = api.area(api.AreaRequest())
        assert cli_doc == json.loads(json.dumps(direct.as_dict()))
        assert direct.reduction == pytest.approx(0.5909, abs=1e-3)

    def test_reliability_matches_engine_directly(self):
        request = api.ReliabilityRequest(
            trials=200, trials_per_shard=50, seed=3
        )
        response = api.reliability(request, engine=_engine())
        direct = run_campaign(
            request.campaign_config(), engine=_engine()
        )
        assert api.campaign_doc(response.result) == api.campaign_doc(direct)

    def test_reliability_progress_events(self):
        events = []
        api.reliability(
            api.ReliabilityRequest(trials=100, trials_per_shard=50),
            engine=_engine(),
            progress=events.append,
        )
        kinds = {event["type"] for event in events}
        assert "shard" in kinds and "round" in kinds
        rounds = [e for e in events if e["type"] == "round"]
        assert rounds[-1]["schemes"]["non-uniform"]["trials"] == 100
        # Round events carry the telemetry counters' point of view.
        counters = rounds[-1]["counters"]["metrics"]
        assert counters["campaign.non-uniform.trials"] == 100

    def test_inject_accepts_any_registered_codec(self):
        response = api.inject(
            api.InjectRequest(codec="interleaved-parity", trials=50)
        )
        assert response.trials == 50
        with pytest.raises(api.ReproError, match="unknown codec"):
            api.inject(api.InjectRequest(codec="turbo"))

    def test_figures_sections_are_structured(self):
        response = api.figures(api.FiguresRequest(fig="area"))
        [section] = response.sections
        assert section.area is not None
        assert section.area.reduction == pytest.approx(0.5909, abs=1e-3)
        doc = response.as_dict()
        assert doc["sections"][0]["area"]["reduction"] == section.area.reduction


class TestErrors:
    def test_unknown_benchmark(self):
        with pytest.raises(api.ReproError, match="unknown benchmark"):
            api.run(api.RunRequest(benchmark="gcc"))

    def test_missing_trace_file(self):
        with pytest.raises(api.ReproError, match="trace file not found"):
            api.run(api.RunRequest(trace="/no/such/trace.bin"))

    def test_bad_run_shape(self):
        with pytest.raises(api.ReproError, match="refs must be positive"):
            api.run(api.RunRequest(refs=0))

    def test_bad_campaign_shape_is_repro_error(self):
        with pytest.raises(api.ReproError):
            api.reliability(
                api.ReliabilityRequest(schemes=("voltage-scaling",))
            )

    def test_unknown_study_and_figure(self):
        with pytest.raises(api.ReproError, match="unknown study"):
            api.ablate(api.AblateRequest(study="voltage"))
        with pytest.raises(api.ReproError, match="unknown figure"):
            api.figures(api.FiguresRequest(fig="99"))

    def test_cli_maps_repro_error_to_exit_2(self, capsys):
        rc = main(["run", "--trace", "/no/such/trace.bin"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "trace file not found" in err


class TestVariantsAndEnums:
    def test_unknown_variant_rejected_at_construction(self):
        with pytest.raises(api.ReproError, match="available variants:"):
            api.RunRequest(variant="bogus")
        with pytest.raises(api.ReproError, match="available variants:"):
            api.IpcRequest(variant="bogus")
        with pytest.raises(api.ReproError, match="available variants:"):
            api.ReliabilityRequest(variant="bogus")

    def test_silent_write_run_counts_and_standard_zero(self):
        config = dict(refs=6000, warmup=1500, benchmark="swim")
        ours = api.run(api.RunRequest(variant="silent-write", **config))
        std = api.run(api.RunRequest(**config))
        assert ours.silent_writes > 0
        assert ours.elided_ecc_updates == ours.silent_writes
        assert std.silent_writes == 0 and std.wb_bytes_raw == 0
        # Elision removes write-backs, never adds them.
        assert ours.writeback_fraction <= std.writeback_fraction

    def test_wb_compress_run_reports_byte_reduction(self):
        out = api.run(api.RunRequest(
            benchmark="swim", variant="wb-compress",
            refs=6000, warmup=1500,
        ))
        assert 0 < out.wb_bytes_compressed < out.wb_bytes_raw

    def test_variant_changes_request_key(self):
        std = api.request_key("run", api.RunRequest(benchmark="swim"))
        sw = api.request_key(
            "run", api.RunRequest(benchmark="swim", variant="silent-write")
        )
        assert std != sw

    def test_kind_enums_renders_registries(self):
        from repro.api.dispatch import kind_enums
        from repro.core.policy import available_variants

        enums = kind_enums("run")
        assert enums["variant"] == available_variants()
        rel = kind_enums("reliability")
        assert "nominal" in rel["scenario"]
        assert "secded" in rel["codec"]
        assert set(rel["schemes"]) >= {"non-uniform", "uniform-ecc"}

    def test_default_doc_carries_enums_but_keeps_fields_flat(self):
        doc = api.default_doc("run")
        assert doc["benchmark"] == "mesa"
        assert "silent-write" in doc["enums"]["variant"]
        # area has no enum-valued fields: no enums key at all.
        assert "enums" not in api.default_doc("area")
