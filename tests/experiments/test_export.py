"""Tests for the structured JSON export."""

import json

import pytest

from repro.experiments import (
    RunConfig,
    config_metadata,
    load_json,
    regenerate_all,
    save_json,
)

FAST = RunConfig(n_refs=4_000, warmup_refs=1_000)


class TestMetadata:
    def test_provenance_fields(self):
        meta = config_metadata(FAST)
        assert meta["n_refs"] == 4_000
        assert meta["geometry"]["name"] == "scaled"
        assert meta["geometry"]["l2_bytes"] == 64 * 1024


class TestRegenerateAll:
    @pytest.fixture(scope="class")
    def doc(self):
        # One expensive full regeneration shared by the class's tests.
        return regenerate_all(FAST, include_ipc=False)

    def test_all_figures_present(self, doc):
        for key in ("figure1", "figure3", "figure4", "figure5", "figure6",
                    "figure7", "figure8", "area", "config"):
            assert key in doc

    def test_no_ipc_when_disabled(self, doc):
        assert "ipc" not in doc

    def test_figure1_has_14_benchmarks(self, doc):
        assert len(doc["figure1"]) == 14

    def test_area_block(self, doc):
        area = doc["area"]
        assert area["conventional_kib"] == 132.0
        assert area["proposed_kib"] == 54.0
        assert area["reduction"] == pytest.approx(0.59, abs=0.005)

    def test_figure7_under_cap(self, doc):
        assert all(v <= 25.0 + 1e-6 for v in doc["figure7"].values())

    def test_json_serialisable(self, doc):
        text = json.dumps(doc)
        assert "figure1" in text

    def test_roundtrip_through_file(self, doc, tmp_path):
        path = tmp_path / "results.json"
        save_json(doc, path)
        loaded = load_json(path)
        assert loaded["figure1"] == doc["figure1"]
        assert loaded["area"]["reduction"] == doc["area"]["reduction"]


class TestCliJson:
    def test_figures_json_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "doc.json"
        code = main([
            "figures", "--json", str(path), "--no-ipc",
            "--refs", "2000", "--warmup", "500",
        ])
        assert code == 0
        doc = load_json(path)
        assert "figure8" in doc
        assert doc["config"]["n_refs"] == 2000


class TestEachCellOnce:
    """Figure 1 reads the sweeps' 'org' runs and Figures 7/8 share one
    full-scheme grid, so a full regeneration runs 84 distinct
    reference-mode cells (14 benchmarks × org, 4 intervals, full)."""

    def test_regenerate_all(self):
        from repro.experiments import SweepEngine

        engine = SweepEngine()
        regenerate_all(
            RunConfig(n_refs=300, warmup_refs=100), include_ipc=False,
            engine=engine,
        )
        labels = [record.label for record in engine.stats.records]
        assert len(labels) == len(set(labels)) == 84

    def test_api_figures(self):
        from repro import api
        from repro.experiments import SweepEngine

        engine = SweepEngine()
        api.figures(api.FiguresRequest(refs=300, warmup=100), engine=engine)
        labels = [
            record.label for record in engine.stats.records
            if not record.label.endswith(":ipc")
        ]
        assert len(labels) == len(set(labels)) == 84
