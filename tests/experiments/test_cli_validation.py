"""Bad CLI input exits 2 with one ``error:`` line, before any work runs.

Every case here once ended in a traceback or ran (part of) its
simulation first.  The request dataclasses now validate at
construction, and the non-kind verbs check their own flags up front.
"""

import pytest

from repro.cli import main
from repro.experiments.pool import SweepEngine


@pytest.fixture
def no_cells(monkeypatch):
    """Fail the test if any sweep cell or mapped task starts."""

    def ran(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(SweepEngine, "run_cells", ran)
    monkeypatch.setattr(SweepEngine, "map_tasks", ran)


def _rejects(capsys, argv, message):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


class TestFigures:
    def test_json_with_negative_refs(self, tmp_path, capsys, no_cells):
        out = tmp_path / "figures.json"
        _rejects(
            capsys, ["figures", "--json", str(out), "--refs", "-5"],
            "refs must be positive and warmup non-negative",
        )
        assert not out.exists()

    def test_zero_area_entries_fails_before_the_grid(self, capsys, no_cells):
        _rejects(
            capsys, ["figures", "--ecc-area-entries", "0"],
            "ecc_area_entries must be positive",
        )

    def test_json_checks_area_entries_too(self, tmp_path, capsys, no_cells):
        out = tmp_path / "figures.json"
        _rejects(
            capsys,
            ["figures", "--json", str(out), "--ecc-area-entries", "0"],
            "ecc_area_entries must be positive",
        )
        assert not out.exists()


class TestInject:
    def test_more_flips_than_codeword_bits(self, capsys):
        # secded: 64 data bits + 8 check bits.
        _rejects(
            capsys, ["inject", "--flips", "100"],
            "flips must be at most 72, the bits of one secded codeword",
        )

    def test_the_limit_follows_the_codec(self, capsys):
        # parity: 64 data bits + 1 check bit.
        _rejects(
            capsys, ["inject", "--codec", "parity", "--flips", "66"],
            "flips must be at most 65, the bits of one parity codeword",
        )

    def test_every_bit_flipped_is_still_a_valid_campaign(self, capsys):
        assert main(["inject", "--flips", "72", "--trials", "5"]) == 0
        assert "secded: 5 trials x 72 flips" in capsys.readouterr().out


class TestStats:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--n-seeds", "0"], "--n-seeds must be >= 1"),
            (["--warmup", "-5"],
             "refs must be positive and warmup non-negative"),
            (["--refs", "0"],
             "refs must be positive and warmup non-negative"),
        ],
    )
    def test_bad_run_shape(self, capsys, no_cells, argv, message):
        _rejects(capsys, ["stats", *argv], message)


class TestTrace:
    def test_negative_count(self, tmp_path, capsys):
        out = tmp_path / "swim.bin"
        _rejects(
            capsys,
            ["trace", "--benchmark", "swim", "--out", str(out), "-n", "-1"],
            "-n must be non-negative",
        )
        assert not out.exists()
