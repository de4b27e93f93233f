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

    def test_unwritable_json_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "figures.json"
        assert main(["figures", "--fig", "area", "--json", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write {out}: No such file or directory"
        ]

    def test_json_area_follows_area_entries(self, tmp_path, capsys):
        import json

        from repro.experiments import area_table

        out = tmp_path / "figures.json"
        assert main([
            "figures", "--json", str(out), "--fig", "area", "--no-cache",
            "--ecc-area-entries", "4",
        ]) == 0
        [section] = json.loads(out.read_text())["sections"]
        _, ours, _ = area_table(ecc_entries_per_set=4)
        assert dict(section["area"]["proposed"])["total"] == ours.total_kib
        assert ours.total_kib != area_table()[1].total_kib


class TestIpc:
    @pytest.mark.parametrize("flag", ["--refs", "--warmup"])
    def test_reference_window_flags_are_gone(self, capsys, no_cells, flag):
        # CPU mode times ``--insts`` instructions with no warm-up, so a
        # reference window would only change the request's identity.
        with pytest.raises(SystemExit) as exit_:
            main(["ipc", flag, "5000"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            f"error: unrecognized arguments: {flag} 5000"
        )

    @pytest.mark.parametrize("field", ["refs", "warmup"])
    def test_wire_request_naming_them_is_rejected(self, field):
        from repro import api

        with pytest.raises(
            api.ReproError, match=f"^unknown IpcRequest field\\(s\\): {field}$"
        ):
            api.request_from_dict(api.IpcRequest, {field: 5000})


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


class TestUnusableStore:
    """A store path that cannot hold ``fabric.db`` is one error line."""

    @pytest.fixture(params=["regular-file", "not-a-database"])
    def bad_dir(self, request, tmp_path):
        if request.param == "regular-file":
            path = tmp_path / "file"
            path.write_text("x")
        else:
            path = tmp_path / "dir"
            path.mkdir()
            (path / "fabric.db").write_bytes(b"\x13" * 4096)
        return path

    def _fails(self, capsys, argv, path):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: cannot open the result store in {path}: ")

    def test_run_cache_dir(self, capsys, bad_dir, no_cells):
        self._fails(capsys, [
            "run", "--benchmark", "mesa", "--refs", "300", "--warmup", "100",
            "--cache-dir", str(bad_dir),
        ], bad_dir)

    def test_serve_data_dir(self, capsys, bad_dir):
        self._fails(
            capsys, ["serve", "--port", "0", "--data-dir", str(bad_dir)], bad_dir
        )


class TestWorkers:
    def test_unreachable_service_is_one_line(self, capsys):
        import socket

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            url = "http://127.0.0.1:{}".format(probe.getsockname()[1])
        _rejects(
            capsys, ["workers", "--url", url],
            f"cannot reach service at {url}: Connection refused",
        )
