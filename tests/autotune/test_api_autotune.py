"""The autotune/recommend facade surface: validation, wire, service.

Every invalid axis value must be an enumerating :class:`ReproError`
(the CLI exits 2 and the HTTP service 400s on the same message), the
request dataclasses must round-trip through the wire dict format, and
a service-submitted autotune job must produce the same numbers as a
direct facade call.
"""

import json

import pytest

from repro import api
from repro.experiments.pool import ResultCache, SweepEngine
from repro.service import JobStore

GRID = {
    "benchmarks": ("mesa",),
    "schemes": ("non-uniform", "parity-only"),
    "codecs": ("secded",),
    "intervals": (262144,),
    "objectives": ("area", "fit"),
    "trials": 200,
    "trials_per_shard": 100,
    "refs": 4000,
    "warmup": 1000,
}


def request(**overrides):
    return api.AutotuneRequest(**{**GRID, **overrides})


class TestValidation:
    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("benchmarks", (), "must not be empty"),
            ("schemes", ("raid",), "available schemes"),
            ("codecs", ("hamming-weak",), "available codecs"),
            ("intervals", (0,), "positive cycle counts"),
            ("ecc_entries", (-1,), "ecc_entries must be positive"),
            ("write_buffers", (0,), "write_buffers must be positive"),
            ("variants", ("lazy",), "available variants"),
            ("scenarios", ("solar-flare",), "available scenarios"),
            ("objectives", ("area", "latency"), "available objectives"),
            ("objectives", ("area", "area"), "two distinct objectives"),
            ("trials", 0, "trials must be positive"),
            ("kernel", "gpu", "available backends"),
        ],
    )
    def test_bad_axis_values_enumerate(self, field, value, match):
        with pytest.raises(api.ReproError, match=match):
            request(**{field: value})

    def test_ipc_objective_accepts_any_registered_variant(self):
        # The OoO core runs under each point's variant, so the ipc
        # objective composes with the whole registry.
        req = request(objectives=("area", "ipc"),
                      variants=("standard", "eager", "silent-write"))
        assert req.variants == ("standard", "eager", "silent-write")

    def test_recommend_needs_a_budget(self):
        with pytest.raises(api.ReproError, match="fit-budget"):
            api.RecommendRequest(**GRID)

    def test_recommend_budgets_must_be_positive(self):
        with pytest.raises(api.ReproError, match="positive"):
            api.RecommendRequest(**GRID, fit_budget=-1.0)

    def test_recommend_requires_area_and_fit_objectives(self):
        with pytest.raises(api.ReproError, match="area"):
            api.RecommendRequest(
                **{**GRID, "objectives": ("energy", "traffic")},
                fit_budget=100.0,
            )


class TestWire:
    def test_autotune_round_trip(self):
        req = request()
        doc = json.loads(json.dumps(req.as_dict()))
        assert api.request_from_dict(api.AutotuneRequest, doc) == req

    def test_recommend_round_trip_keeps_budgets(self):
        req = api.RecommendRequest(**GRID, fit_budget=500.0,
                                   area_budget=100.0)
        doc = json.loads(json.dumps(req.as_dict()))
        back = api.request_from_dict(api.RecommendRequest, doc)
        assert back == req
        assert back.fit_budget == 500.0

    def test_unknown_field_is_rejected(self):
        with pytest.raises(api.ReproError, match="unknown"):
            api.request_from_dict(
                api.AutotuneRequest, {"bencmarks": ["mesa"]}
            )

    def test_request_key_is_stable(self):
        # Same request, same key — the dedupe invariant.
        assert api.request_key("autotune", request()) == api.request_key(
            "autotune", request()
        )

    def test_request_key_separates_kinds_and_grids(self):
        auto = api.request_key("autotune", request())
        rec = api.request_key(
            "recommend", api.RecommendRequest(**GRID, fit_budget=1e6)
        )
        other = api.request_key("autotune", request(trials=201))
        assert len({auto, rec, other}) == 3

    def test_kinds_registry_carries_both(self):
        assert "autotune" in api.KINDS and "recommend" in api.KINDS
        assert "autotune" in api.CAMPAIGN_KINDS
        assert "recommend" in api.CAMPAIGN_KINDS


class TestService:
    def test_submitted_job_matches_direct_call(self, tmp_path):
        """Dedupe on submission; served numbers == direct facade call."""
        store = JobStore(
            data_dir=tmp_path / "service", workers=0,
            engine_factory=lambda job: SweepEngine(
                jobs=1, cache=False, progress=False
            ),
        )
        try:
            payload = json.loads(json.dumps(request().as_dict()))
            first, created = store.submit("autotune", payload)
            second, shared = store.submit("autotune", payload)
            assert created and not shared
            assert first is second
            assert store.run_pending() == 1
            served = first.result_doc()
            assert served is not None
        finally:
            store.close()

        direct = api.autotune(
            request(),
            engine=SweepEngine(jobs=1, cache=False, progress=False),
        ).as_dict()
        direct = json.loads(json.dumps(direct))
        assert served["points"] == direct["points"]
        assert served["fronts"] == direct["fronts"]

    def test_recommend_job_serves_choices(self, tmp_path):
        store = JobStore(
            data_dir=tmp_path / "service", workers=0,
            engine_factory=lambda job: SweepEngine(
                jobs=1, cache=ResultCache(str(tmp_path / "cache")),
                progress=False,
            ),
        )
        try:
            req = api.RecommendRequest(**GRID, fit_budget=1e6)
            payload = json.loads(json.dumps(req.as_dict()))
            job, created = store.submit("recommend", payload)
            assert created
            assert store.run_pending() == 1
            doc = job.result_doc()
            assert doc["choices"]["mesa"]["point"]["label"]
            assert doc["choices"]["mesa"]["fit_budget"] == 1e6
        finally:
            store.close()

    def test_infeasible_budget_is_a_job_error(self, tmp_path):
        store = JobStore(
            data_dir=tmp_path / "service", workers=0,
            engine_factory=lambda job: SweepEngine(
                jobs=1, cache=False, progress=False
            ),
        )
        try:
            req = api.RecommendRequest(**GRID, fit_budget=1e-9)
            payload = json.loads(json.dumps(req.as_dict()))
            job, _ = store.submit("recommend", payload)
            store.run_pending()
            assert job.state == "error"
            assert "budgets" in job.error
        finally:
            store.close()
