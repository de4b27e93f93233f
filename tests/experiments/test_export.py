"""``repro figures --json``: the one figures document.

The CLI writes ``api.figures(request).as_dict()`` — the document the
job service returns for the same request — and honours ``--fig``.
"""

import json

import pytest

from repro import api
from repro.cli import main
from repro.experiments import SweepEngine

SMALL = ["--refs", "300", "--warmup", "100", "--no-cache"]
REQUEST = {"refs": 300, "warmup": 100}


def _write(tmp_path, capsys, *argv):
    path = tmp_path / "figures.json"
    assert main(["figures", "--json", str(path), *SMALL, *argv]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {path}\n")
    return path


def _dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


class TestCliJson:
    def test_json_is_the_figures_response(self, tmp_path, capsys):
        path = _write(tmp_path, capsys)
        response = api.figures(
            api.request_from_dict(api.FiguresRequest, REQUEST),
            engine=SweepEngine(),
        )
        assert path.read_bytes() == _dumps(response.as_dict())
        titles = [s["title"] for s in json.loads(path.read_text())["sections"]]
        assert titles[0].startswith("Table 1:")
        assert "IPC: org vs ours" in titles

    def test_one_figure_is_one_section(self, tmp_path, capsys):
        doc = json.loads(_write(tmp_path, capsys, "--fig", "8").read_text())
        assert doc["request"]["fig"] == "8"
        [section] = doc["sections"]
        assert section["title"].startswith("Figure 8:")
        assert len(section["series"]) == 14

    def test_no_ipc_is_gone(self, tmp_path, capsys):
        path = tmp_path / "figures.json"
        with pytest.raises(SystemExit) as exit_:
            main(["figures", "--json", str(path), "--no-ipc", *SMALL])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: unrecognized arguments: --no-ipc"
        ]
        assert not path.exists()

    def test_cli_document_is_the_services(self, tmp_path, capsys):
        from repro.service import ReproService, ServiceClient

        path = _write(tmp_path, capsys)
        service = ReproService(
            port=0, data_dir=tmp_path / "service", workers=1
        ).start()
        try:
            client = ServiceClient(service.url)
            job_id = client.submit("figures", REQUEST)["job"]["id"]
            served = client.result(job_id, timeout=120)
        finally:
            service.shutdown()
        assert path.read_bytes() == _dumps(served)


class TestEachCellOnce:
    """Figure 1 reads the sweeps' 'org' runs and Figures 7/8 share one
    full-scheme grid, so a full regeneration runs 84 distinct
    reference-mode cells (14 benchmarks × org, 4 intervals, full)."""

    def test_api_figures(self):
        engine = SweepEngine()
        api.figures(api.FiguresRequest(refs=300, warmup=100), engine=engine)
        labels = [
            record.label for record in engine.stats.records
            if not record.label.endswith(":ipc")
        ]
        assert len(labels) == len(set(labels)) == 84
