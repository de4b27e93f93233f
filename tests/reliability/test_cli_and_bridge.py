"""The ``repro reliability`` verb and the experiments bridge."""

import pytest

from repro.cli import main
from repro.experiments.pool import SweepEngine
from repro.experiments.reliability import (
    benchmark_campaigns,
    measured_dirty_fractions,
)
from repro.experiments.report import render_campaign, render_campaign_comparison
from repro.experiments.runner import RunConfig
from repro.reliability import CampaignConfig, run_campaign


def _cli(capsys, *argv):
    rc = main(["reliability", *argv])
    return rc, capsys.readouterr().out


QUICK = ("--trials", "200", "--trials-per-shard", "50")


def test_cli_fixed_campaign(capsys):
    rc, out = _cli(capsys, *QUICK)
    assert rc == 0
    assert "Reliability campaign" in out
    assert "uniform-ecc" in out and "non-uniform" in out
    assert "MTTF" in out and "fixed" in out


def test_cli_auto_campaign_reaches_the_target(capsys):
    rc, out = _cli(
        capsys, "--trials", "auto", "--target", "0.05",
        "--trials-per-shard", "100", "--shards-per-round", "4",
    )
    assert rc == 0
    assert "±0.05 on sdc" in out
    assert "target" in out


def test_cli_checkpoint_resume(tmp_path, capsys):
    path = str(tmp_path / "c.jsonl")
    rc, first = _cli(capsys, *QUICK, "--checkpoint", path)
    assert rc == 0
    assert "0 / 8" in first  # 4 shards x 2 schemes, none resumed
    rc, second = _cli(capsys, *QUICK, "--checkpoint", path)
    assert rc == 0
    assert "8 / 0" in second  # fully replayed, nothing executed


def test_cli_checkpoint_config_mismatch_exits(tmp_path, capsys):
    path = str(tmp_path / "c.jsonl")
    assert _cli(capsys, *QUICK, "--checkpoint", path)[0] == 0
    with pytest.raises(SystemExit, match="configuration changed"):
        main(["reliability", "--trials", "400", "--trials-per-shard", "50",
              "--checkpoint", path])


def test_cli_malformed_checkpoint_record_exits_with_one_line(
    tmp_path, capsys
):
    path = tmp_path / "c.jsonl"
    assert _cli(capsys, *QUICK, "--checkpoint", str(path))[0] == 0
    lines = path.read_text().splitlines()
    lines.insert(1, '{"type": "shard", "scheme": "uniform-ecc"}')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["reliability", *QUICK, "--checkpoint", str(path)])
    message = str(exc.value)
    assert exc.value.code != 0
    assert "malformed checkpoint line 2" in message
    assert "\n" not in message.strip()


def test_cli_rejects_bad_trials():
    with pytest.raises(SystemExit):
        main(["reliability", "--trials", "-3"])
    with pytest.raises(SystemExit):
        main(["reliability", "--trials", "sometimes"])


def test_cli_rejects_unknown_kernel(capsys):
    # Facade-level validation: exit 2 with the backend listing, not an
    # argparse usage error and not a traceback mid-campaign.
    rc = main(["reliability", "--kernel", "turbo", *QUICK])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert "available backends: batch, reference" in captured.err


def test_cli_rejects_retired_vector_kernel(capsys):
    # The numpy kernel is gone: its name is an unknown backend like any
    # other, reported on one line.
    rc = main(["reliability", "--kernel", "vector", *QUICK])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip().splitlines() == [
        "error: unknown kernel 'vector'; available backends: batch, "
        "reference"
    ]


def test_cli_rejects_unknown_scenario(capsys):
    rc = main(["reliability", "--scenario", "bogus", *QUICK])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert (
        "available scenarios: nominal, burst-heavy, low-voltage, rowcol"
        in captured.err
    )


def test_cli_rejects_unknown_codec(capsys):
    rc = main(["reliability", "--codec", "turbo", *QUICK])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert (
        "available codecs: dected, interleaved-parity, parity, "
        "rs-symbol, secded" in captured.err
    )


def test_cli_help_enumerates_scenarios_and_codecs(capsys):
    with pytest.raises(SystemExit):
        main(["reliability", "--help"])
    out = " ".join(capsys.readouterr().out.split())  # undo argparse wrap
    assert "nominal, burst-heavy, low-voltage, rowcol" in out
    assert "dected" in out and "rs-symbol" in out


def test_cli_scenario_campaign_end_to_end(capsys):
    rc, out = _cli(
        capsys, *QUICK, "--scenario", "burst-heavy", "--codec", "dected"
    )
    assert rc == 0
    assert "Reliability campaign" in out
    assert "burst-heavy" in out  # settings table names the scenario
    assert "dected" in out


def test_cli_nominal_hides_scenario_rows(capsys):
    rc, out = _cli(capsys, *QUICK)
    assert rc == 0
    assert "scenario" not in out  # default settings stay unchanged


def test_cli_trace_export(tmp_path, capsys):
    out_path = tmp_path / "trace.jsonl"
    rc, out = _cli(capsys, *QUICK, "--trace-out", str(out_path))
    assert rc == 0
    assert out_path.exists()
    assert "campaign_outcome" in out


_RUN = RunConfig(n_refs=4000, warmup_refs=1000)


def test_measured_dirty_fractions():
    fractions = measured_dirty_fractions("mesa", _RUN)
    assert set(fractions) == {"uniform-ecc", "parity-only", "non-uniform"}
    assert fractions["uniform-ecc"] == fractions["parity-only"]
    for value in fractions.values():
        assert 0.0 <= value <= 1.0
    # Cleaning + ECC eviction keep the protected cache cleaner.
    assert fractions["non-uniform"] < fractions["uniform-ecc"]


def test_benchmark_campaigns_and_rendering(tmp_path):
    engine = SweepEngine(jobs=1, cache=False, progress=False)
    results = benchmark_campaigns(
        ["mesa"],
        run_config=_RUN,
        campaign_config=CampaignConfig(trials=200, trials_per_shard=100),
        engine=engine,
        checkpoint_dir=str(tmp_path),
    )
    assert set(results) == {"mesa"}
    assert (tmp_path / "mesa.jsonl").exists()
    result = results["mesa"]
    # The measured fractions were substituted in.
    assert result.config.dirty_fractions is not None

    table = render_campaign(result, title="campaign")
    assert "uniform-ecc" in table and "±" in table
    comparison = render_campaign_comparison(results)
    assert "mesa" in comparison and "non-uniform avf" in comparison


def test_run_campaign_defaults_need_no_engine():
    result = run_campaign(CampaignConfig(trials=100, trials_per_shard=100))
    assert result.total_trials == 200
