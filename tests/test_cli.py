"""Command-line interface: flags, config files, manifests, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lethe
from lethe.cli import UsageError, dispatch, parse_duration


def run(argv, capsys=None):
    code = dispatch(argv)
    return code


# ---------------------------------------------------------------------------
# plumbing


def test_parse_duration_suffixes():
    assert parse_duration("90s") == 90
    assert parse_duration("15m") == 900
    assert parse_duration("9h") == 32400
    assert parse_duration("30d") == 30 * 86400
    assert parse_duration("3600") == 3600
    assert parse_duration("1.5h") == 5400
    with pytest.raises(UsageError):
        parse_duration("ten minutes")


def test_tune_emits_expected_json(tmp_path, capsys):
    out = tmp_path / "tune.json"
    code = dispatch(
        ["tune", "--availability", "0.9", "--mean-down", "1h", "--theta", "30d",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "mean_up_seconds",
        "mean_down_seconds",
        "shape_n",
        "availability",
        "theta_star_seconds",
    }
    assert payload["mean_up_seconds"] == pytest.approx(32400, abs=1e-6)
    assert payload["shape_n"] == pytest.approx(6e-4, rel=0.5)
    assert payload["availability"] == pytest.approx(0.9, abs=1e-9)
    assert (tmp_path / "manifest.json").exists()


def test_module_entry_point_runs_command(tmp_path):
    out = tmp_path / "tune.json"
    env = {**os.environ, "PYTHONPATH": str(Path(lethe.__file__).resolve().parents[1])}
    subprocess.run(
        [sys.executable, "-m", "lethe.cli", "tune", "--availability", "0.9",
         "--theta", "30d", "--out", str(out)],
        env=env,
        check=True,
        timeout=120,
    )
    assert out.exists()


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs most of a cold start and nothing in lethe needs it
    env = {**os.environ, "PYTHONPATH": str(Path(lethe.__file__).resolve().parents[1])}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, lethe.cli; print('scipy.stats' in sys.modules)"],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert loaded.stdout.strip() == "False"


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps lethe functions where callers import them,
    # some imported only for it (the noqa imports in lethe.store and
    # lethe.utility); install() refuses to run if one of them is gone
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    env = {**os.environ, "PYTHONPATH": str(Path(lethe.__file__).resolve().parents[1])}
    installed = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import tracing; tracing.Tracer().install()",
         str(perfbench)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert installed.returncode == 0, installed.stderr


def test_missing_required_flag_exits_one(tmp_path, capsys):
    code = dispatch(["simulate", "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "--theta-days" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert dispatch(["tune", "--no-such-flag", "3"]) == 1
    assert "--no-such-flag" in capsys.readouterr().err


def test_invalid_value_exits_nonzero(tmp_path, capsys):
    code = dispatch(
        ["tune", "--availability", "1.5", "--theta", "30d",
         "--out", str(tmp_path / "t.json")]
    )
    assert code == 1


def test_manifest_records_seed_version_config(tmp_path):
    out = tmp_path / "tune.json"
    dispatch(
        ["tune", "--availability", "0.9", "--theta", "30d", "--seed", "99",
         "--out", str(out)]
    )
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "tune"
    assert manifest["seed"] == 99
    assert manifest["version"]
    assert manifest["config"]["theta"] == "30d"


# ---------------------------------------------------------------------------
# simulation reports


def _simulate_args(tmp_path, name, seed="5"):
    return [
        "simulate",
        "--theta-days", "20",
        "--initial-posts", "5000",
        "--creations-per-day", "16",
        "--deletions-per-day", "5",
        "--horizon-days", "180",
        "--scale-factor", "1",
        "--engine", "accelerated",
        "--seed", seed,
        "--out", str(tmp_path / name),
    ]


def test_simulate_reports_are_byte_identical_across_reruns(tmp_path, capsys):
    assert dispatch(_simulate_args(tmp_path, "a.json")) == 0
    assert dispatch(_simulate_args(tmp_path, "b.json")) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    payload = json.loads((tmp_path / "a.json").read_text())
    row = payload["per_threshold"][0]
    assert {"tp", "fp", "fn", "precision", "recall", "fp_full_scale"} <= set(row)
    assert payload["scenario"] == "flag-multi"


def test_simulate_scenario_once(tmp_path, capsys):
    argv = _simulate_args(tmp_path, "once.json") + ["--scenario", "once"]
    assert dispatch(argv) == 0
    payload = json.loads((tmp_path / "once.json").read_text())
    assert payload["scenario"] == "flag-once"


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    config = {
        "tune": {"availability": 0.85, "mean_down": "1h", "theta": "60d"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "tune.json"
    assert dispatch(["tune", "--config", str(config_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["availability"] == pytest.approx(0.85)
    # flags override their config keys
    assert (
        dispatch(
            ["tune", "--config", str(config_path), "--availability", "0.95",
             "--out", str(out)]
        )
        == 0
    )
    assert json.loads(out.read_text())["availability"] == pytest.approx(0.95)


def test_config_unknown_keys_rejected(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"tune": {"no_such_option": 1}}))
    code = dispatch(
        ["tune", "--config", str(config_path), "--availability", "0.9",
         "--theta", "30d", "--out", str(tmp_path / "t.json")]
    )
    assert code == 1
    assert "no_such_option" in capsys.readouterr().err


def test_seed_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("LETHE_SEED", "1234")
    out = tmp_path / "tune.json"
    dispatch(["tune", "--availability", "0.9", "--theta", "30d", "--out", str(out)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 1234


# ---------------------------------------------------------------------------
# curves


def test_curve_commands_write_named_files(tmp_path, capsys):
    assert (
        dispatch(
            ["hazard-curve", "--kind", "geometric", "--kind", "degenerate",
             "--mean", "9h", "--t-max", "2h", "--step", "10m",
             "--out-dir", str(tmp_path)]
        )
        == 0
    )
    assert (tmp_path / "inverse_hazard_geometric.csv").exists()
    assert (tmp_path / "inverse_hazard_degenerate.csv").exists()

    assert (
        dispatch(
            ["ccdf-curve", "--kind", "poisson", "--mean", "1h",
             "--t-max", "2h", "--step", "10m", "--out-dir", str(tmp_path)]
        )
        == 0
    )
    assert (tmp_path / "inverse_ccdf_poisson.csv").exists()

    assert (
        dispatch(
            ["lr-curve", "--up-mean", "9h", "--down-mean", "1h",
             "--down-kind", "zeta", "--shape", "6e-4",
             "--t-max", "60d", "--step", "10d", "--out-dir", str(tmp_path)]
        )
        == 0
    )
    assert (tmp_path / "lr_zeta.csv").exists()
    assert (tmp_path / "lr_negative-binomial_n0.0006.csv").exists()
    header = (tmp_path / "lr_zeta.csv").read_text().splitlines()[0]
    assert header == "t_seconds,value"


def test_fft_table_and_utility_reruns_byte_identical(tmp_path, capsys):
    fft_args = [
        "fft-table",
        "--initial-posts", "3000", "--creations-per-day", "16",
        "--deletions-per-day", "5", "--horizon-days", "120",
        "--availabilities", "0.9", "--theta-days", "20",
        "--scale-factor", "1", "--seed", "6",
    ]
    util_args = [
        "utility", "--synthetic", "--posts", "200", "--interactions-mean", "3",
        "--availability", "0.9", "--theta-days", "30", "--seed", "6",
    ]
    for name, argv in (("fft.csv", fft_args), ("utility.json", util_args)):
        for run in ("a", "b"):
            assert dispatch(argv + ["--out", str(tmp_path / f"{run}-{name}")]) == 0
        assert (tmp_path / f"a-{name}").read_bytes() == (tmp_path / f"b-{name}").read_bytes()


def test_fft_table_small_grid(tmp_path, capsys):
    out = tmp_path / "fft.csv"
    code = dispatch(
        ["fft-table",
         "--initial-posts", "4000", "--creations-per-day", "16",
         "--deletions-per-day", "5", "--horizon-days", "120",
         "--availabilities", "0.9", "--theta-days", "20",
         "--scale-factor", "1", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,availability,theta_days,fp,fp_full_scale"
    assert len(lines) == 3  # one availability x one theta x two scenarios


def test_utility_synthetic_grid(tmp_path, capsys):
    out = tmp_path / "utility.json"
    code = dispatch(
        ["utility", "--synthetic", "--posts", "300", "--interactions-mean", "3",
         "--availability", "0.9", "--theta-days", "30",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    cell = payload["cells"][0]
    assert cell["availability"] == 0.9
    assert cell["allowed"] + cell["missed"] > 0
    assert cell["utility"] > 0.95


def test_utility_requires_trace_or_synthetic(tmp_path, capsys):
    assert dispatch(["utility", "--out", str(tmp_path / "u.json")]) == 1
