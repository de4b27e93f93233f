"""The claims ledger over the committed bench-size figures document.

``scripts/check_claims.py`` reads ``benchmarks/results/figures.json``
only; these tests do too, and never simulate.  They pin that every
paper claim holds on the committed document, that EXPERIMENTS.md
quotes it exactly, that the document answers the bench-size request,
and that a predicate fails, by name, on a document that breaks it.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_claims.py"
_spec = importlib.util.spec_from_file_location("check_claims", _SCRIPT)
check_claims = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_claims)

DOC = json.loads(check_claims.DOCUMENT.read_text(encoding="utf-8"))


def _claims(doc):
    return [c for block in check_claims.ledger(doc).values() for c in block]


def _failed(doc):
    return [c.name for c in _claims(doc) if c.ok is False]


class TestCommittedDocument:
    def test_every_predicate_passes(self):
        assert _failed(DOC) == []

    def test_gaps_are_stated_not_gated(self):
        gaps = {c.name: c for c in _claims(DOC) if c.ok is None}
        assert set(gaps) == {"gap.1M-dirty", "gap.traffic-scale"}
        assert all(c.verdict == "gap" for c in gaps.values())

    def test_names_are_unique(self):
        names = [c.name for c in _claims(DOC)]
        assert len(names) == len(set(names))

    def test_rendered_blocks_equal_experiments_md(self):
        text = check_claims.EXPERIMENTS.read_text(encoding="utf-8")
        assert check_claims.read_blocks(text) == check_claims.render_blocks(
            check_claims.ledger(DOC)
        )

    def test_request_is_the_bench_size(self):
        assert DOC["request"] == check_claims.BENCH_REQUEST
        assert DOC["request"]["refs"] == 120_000
        assert DOC["request"]["warmup"] == 40_000
        assert DOC["request"]["seed"] == 0

    def test_ipc_section_holds_every_benchmark(self):
        assert len(check_claims.series(DOC, "IPC")) == 14


class TestPredicates:
    def test_apsi_at_30_percent_fails_the_cap(self):
        doc = copy.deepcopy(DOC)
        check_claims.series(doc, "Figure 7:")["apsi"]["dirty %"] = 30.0
        assert _failed(doc) == ["fig7.cap-25"]

    def test_a_missing_table1_line_fails_by_name(self):
        doc = copy.deepcopy(DOC)
        table1 = check_claims.section(doc, "Table 1:")
        table1["text"] = table1["text"].replace("32-entry LSQ", "16-entry LSQ")
        assert _failed(doc) == ["table1.lsq"]

    def test_ecc_wb_losing_the_lead_fails(self):
        doc = copy.deepcopy(DOC)
        for row in check_claims.series(doc, "Figure 8:").values():
            row["WB"] += 10.0
        assert "fig8.ecc-wb-dominates" in _failed(doc)


class TestMain:
    @pytest.mark.parametrize("text, reason", [
        ("not json", "cannot read the claims"),
        ('{"request": {}, "sections": []}', "cannot read the claims"),
        (json.dumps(dict(DOC, request=dict(DOC["request"], refs=6000))),
         "not the bench size"),
    ])
    def test_bad_document_is_one_fail_line(
        self, tmp_path, monkeypatch, capsys, text, reason
    ):
        path = tmp_path / "figures.json"
        path.write_text(text)
        monkeypatch.setattr(check_claims, "DOCUMENT", path)
        assert check_claims.main() == 1
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith("FAIL: ") and reason in line


class TestSync:
    BLOCKS = {"figure7": "| new |\n", "area": "| area |\n"}

    def test_drifted_block_is_rewritten_and_named(self):
        text = (
            "intro\n<!-- claims:figure7 -->\n| old |\n<!-- /claims:figure7 -->\n"
            "<!-- claims:area -->\n| area |\n<!-- /claims:area -->\nend\n"
        )
        new, drifted, missing = check_claims.sync(text, self.BLOCKS)
        assert drifted == ["figure7"]
        assert missing == []
        assert check_claims.read_blocks(new) == self.BLOCKS
        assert new.startswith("intro\n") and new.endswith("end\n")
        assert check_claims.sync(new, self.BLOCKS) == (new, [], [])

    def test_missing_block_is_named(self):
        text = "<!-- claims:area -->\n| area |\n<!-- /claims:area -->\n"
        _, drifted, missing = check_claims.sync(text, self.BLOCKS)
        assert (drifted, missing) == ([], ["figure7"])
