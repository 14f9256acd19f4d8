"""Command-line interface: flags, config files, manifests, reproducibility."""

import csv
import json
import os
import shlex
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import lethe
from lethe import cli
from lethe.cli import UsageError, dispatch, parse_duration
from lethe.store import PostStore
from lethe.tuning import TuningSpec, build_mechanism


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


def test_tune_rejects_what_build_mechanism_rejects(tmp_path, capsys):
    # a 0.36 s mean up is no duration law; simulate and store serve refuse it
    code = dispatch(
        ["tune", "--availability", "0.0001", "--mean-down", "1h", "--theta", "30d",
         "--out", str(tmp_path / "t.json")]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: mean must exceed 1 second")
    assert not (tmp_path / "t.json").exists()


def test_sub_second_threshold_exits_one(tmp_path, capsys):
    for theta in ("0", "0.00001", "-1"):
        args = _simulate_args(tmp_path, "r.json")
        args[args.index("--theta-days") + 1] = theta
        assert dispatch(args + ["--theta-star-days", "30"]) == 1
        assert capsys.readouterr().err.startswith("error: threshold ")
    assert not (tmp_path / "r.json").exists()


def test_simulate_refuses_a_config_that_drains_before_running(tmp_path, capsys):
    # 11 posts, 2 created and 3 deleted a day: 2 left for day 10's 3 deletions
    args = _simulate_args(tmp_path, "r.json")
    for flag, value in [("--initial-posts", "11"), ("--creations-per-day", "2"),
                        ("--deletions-per-day", "3"), ("--horizon-days", "10"),
                        ("--theta-days", "1"), ("--engine", "exact")]:
        args[args.index(flag) + 1] = value
    assert dispatch(args + ["--threads", "1"]) == 1
    assert capsys.readouterr().err == "error: deletion rate would drain the platform\n"
    assert not (tmp_path / "r.json").exists()


def test_store_serve_rejects_out_of_range_port(tmp_path, capsys):
    for port in ("70000", "65536", "-1"):
        data_dir = tmp_path / f"port{port}"
        code = dispatch(["store", "serve", "--port", port, "--data-dir", str(data_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --port must be in 0..65535")
        assert not data_dir.exists()  # refused before the store opens


def test_store_serve_stops_on_sigint_and_keeps_its_posts(tmp_path):
    """`store serve` in a child process, stopped with SIGINT as the benchmark
    stops it: exit 0, a manifest, and a log that ends with a clock line and
    from which the post is served."""
    data_dir = tmp_path / "data"
    env = {**os.environ, "PYTHONPATH": str(Path(lethe.__file__).resolve().parents[1])}
    # a child of a non-interactive shell may inherit SIGINT ignored
    launch = ("import signal; signal.signal(signal.SIGINT, signal.default_int_handler); "
              "from lethe import cli; cli.main()")
    server = subprocess.Popen(
        [sys.executable, "-c", launch, "store", "serve", "--port", "0",
         "--data-dir", str(data_dir), "--seed", "9"],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        listening = server.stdout.readline()
        assert listening.startswith("store listening on "), listening
        host, port = listening.split()[-1].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(json.dumps({"op": "put", "content": "kept", "token": "tok"}).encode() + b"\n")
            fh.flush()
            put = json.loads(fh.readline())
        assert put["status"] == "ok"
        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    assert (data_dir / "manifest.json").exists()
    previous, last = map(json.loads, (data_dir / "store.log").read_text().splitlines()[-2:])
    assert last["op"] == "clock" and last["t"] >= previous["t"]  # the stop logged its time
    up, down = build_mechanism(TuningSpec(0.9, 3600.0, 30 * 86400))
    store = PostStore(up, down, seed=9, data_dir=str(data_dir))
    try:
        assert store.get(put["post_id"], "tok") == "kept"
    finally:
        store.close()


@pytest.fixture
def no_store(monkeypatch):
    """Fail, rather than serve until killed, if the command opens a store."""

    def refuse(*args, **kwargs):
        raise AssertionError("the store opened")

    monkeypatch.setattr(cli, "PostStore", refuse)


@pytest.mark.parametrize("period", ["0", "-1", "inf", "nan"])
def test_store_serve_rejects_a_period_that_is_not_positive_and_finite(
    period, tmp_path, capsys, no_store
):
    data_dir = tmp_path / "data"
    code = dispatch(
        ["store", "serve", "--port", "0", "--updater-period-seconds", period,
         "--data-dir", str(data_dir)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --updater-period-seconds")
    assert not data_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ccdf-curve", "--t-max", "inf"],
        ["tune", "--availability", "0.9", "--theta", "inf"],
        ["tune", "--availability", "0.9", "--theta", "nan"],
        ["lr-curve", "--up-mean", "inf"],
        ["hazard-curve", "--mean", "1e400"],
        ["utility", "--synthetic", "--posts", "10", "--availability", "0.9",
         "--theta-days", "inf"],
    ],
    ids=" ".join,
)
def test_non_finite_input_exits_one(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _readme_commands() -> dict:
    """The README's command-line examples by subcommand, split as a shell would."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return {line.split()[1]: shlex.split(line)[1:] for line in lines if line.startswith("lethe ")}


@pytest.mark.parametrize("command", ["tune", "hazard-curve", "ccdf-curve", "lr-curve"])
def test_readme_example_runs(command, tmp_path, capsys):
    argv = _readme_commands()[command]
    for flag in ("--out", "--out-dir"):
        if flag in argv:
            at = argv.index(flag) + 1
            argv[at] = str(tmp_path / argv[at])
    assert dispatch(argv) == 0


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


def test_config_unknown_keys_rejected(tmp_path, capsys, no_store):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"tune": {"no_such_option": 1}}))
    code = dispatch(
        ["tune", "--config", str(config_path), "--availability", "0.9",
         "--theta", "30d", "--out", str(tmp_path / "t.json")]
    )
    assert code == 1
    assert "no_such_option" in capsys.readouterr().err
    # seed, config and command are no config keys, whatever the command
    config_path.write_text(json.dumps({"store": {"seed": 1}}))
    data_dir = tmp_path / "data"
    code = dispatch(["store", "serve", "--config", str(config_path), "--data-dir", str(data_dir)])
    assert code == 1
    assert "unknown config keys: seed" in capsys.readouterr().err
    assert not data_dir.exists()


def test_repeated_flags_replace_a_config_list(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "hazard-curve": {"kind": ["geometric", "zeta"], "t_max": "2h", "step": "10m",
                         "out_dir": str(tmp_path / "curves")},
        "utility": {"synthetic": True, "posts": 50, "availability": [0.85, 0.9],
                    "theta_days": [30], "out": str(tmp_path / "utility" / "u.json")},
    }))
    argv = ["hazard-curve", "--config", str(config_path), "--kind", "degenerate",
            "--kind", "geometric"]
    assert dispatch(argv) == 0
    curves = tmp_path / "curves"
    assert sorted(p.name for p in curves.glob("*.csv")) == [
        "inverse_hazard_degenerate.csv", "inverse_hazard_geometric.csv"
    ]
    manifest = json.loads((curves / "manifest.json").read_text())
    assert manifest["config"]["kind"] == ["degenerate", "geometric"]

    assert dispatch(["utility", "--config", str(config_path), "--availability", "0.95"]) == 0
    report = json.loads((tmp_path / "utility" / "u.json").read_text())
    assert [cell["availability"] for cell in report["cells"]] == [0.95]
    manifest = json.loads((tmp_path / "utility" / "manifest.json").read_text())
    assert manifest["config"]["availability"] == [0.95]


@pytest.mark.parametrize(
    "config, argv, named",
    [
        ({"utility": {"availability": 0.9, "synthetic": True}}, ["utility"], "'availability'"),
        ({"hazard-curve": {"kind": "zeta"}}, ["hazard-curve"], "'kind'"),
        ({"tune": {"availability": [0.9], "theta": "30d"}}, ["tune"], "'availability'"),
        ({"lr-curve": {"shape": 0.0006}}, ["lr-curve"], "'shape'"),
        ({"simulate": {"initial_posts": 1000.7, "theta_days": [20], "horizon_days": 30,
                       "scale_factor": 1}}, ["simulate"], "'initial_posts'"),
        ({"store": {"port": 7007.5}}, ["store", "serve"], "'port'"),
        ({}, ["lr-curve", "--down-kind", "zeta", "--down-kind", "negative-binomial"],
         "--shape"),
        # an empty list leaves nothing to run
        ({"hazard-curve": {"kind": []}}, ["hazard-curve"], "no distributions"),
        ({"utility": {"availability": [], "synthetic": True}}, ["utility"], "--availability"),
        ({"utility": {"synthetic": "yes"}}, ["utility"], "'synthetic' takes true or false"),
        ({}, ["tune", "--theta", "30d"], "--availability is required"),
        ({}, ["tune", "--availability", "0.9"], "--theta is required"),
        ({}, ["hazard-curve", "--step", "0", "--out-dir", "curves"], "step must be >= 1"),
        # a grid of no points
        ({}, ["hazard-curve", "--t-max", "30s", "--step", "60s", "--out-dir", "curves"],
         "t_max 30"),
        ({}, ["lr-curve", "--t-max=-1d", "--out-dir", "curves"], "t_max -86400"),
        # a bad duration names its flag or config key
        ({"tune": {"availability": 0.9, "theta": "abc"}}, ["tune"], "config key 'theta'"),
        ({"hazard-curve": {"t_max": "1x"}}, ["hazard-curve"], "config key 't_max'"),
        ({}, ["tune", "--availability", "0.9", "--theta", "abc"], "argument --theta"),
        # the config file itself: missing (None), not JSON (text), wrong shapes
        (None, ["tune"], "--config config.json: [Errno 2]"),
        ('{"tune": ', ["tune"], "--config config.json: Expecting value"),
        ([{"tune": {}}], ["tune"], "top level must be an object"),
        ({"tune": ["availability", 0.9]}, ["tune"], "section 'tune' must be an object"),
    ],
    ids=["utility-scalar-list", "curve-kind-string", "tune-list-scalar", "lr-shape-scalar",
         "simulate-fractional-int", "store-fractional-port", "lr-nb-kind-without-shape",
         "curve-empty-kinds", "utility-empty-grid", "utility-synthetic-string",
         "tune-without-availability", "tune-without-theta", "curve-zero-step",
         "curve-t-max-under-step", "lr-negative-t-max",
         "tune-theta-config", "curve-t-max-config", "tune-theta-flag", "config-missing",
         "config-not-json", "config-top-level-list", "config-section-list"],
)
def test_bad_input_exits_one_before_any_output(
    config, argv, named, tmp_path, capsys, monkeypatch, no_store
):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("config.json").write_text(config if isinstance(config, str) else json.dumps(config))
    assert dispatch(argv + ["--config", "config.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert os.listdir(tmp_path) == ([] if config is None else ["config.json"])


@pytest.mark.parametrize(
    "argv",
    [["tune", "--availability", "0.9", "--theta", "30d", "--out", "file/tune.json"],
     ["hazard-curve", "--t-max", "1h", "--out-dir", "file/curves"]],
    ids=["tune", "hazard-curve"],
)
def test_output_under_a_regular_file_exits_two(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("")
    assert dispatch(argv) == 2
    assert capsys.readouterr().err.startswith("failed: ")
    assert os.listdir(tmp_path) == ["file"]


def test_manifests_record_resolved_list_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, out_dir, resolved in (
        (["utility", "--synthetic", "--posts", "20", "--out", "utility/u.json"], "utility",
         {"availability": [0.85, 0.9, 0.95], "theta_days": [30, 60, 90, 120, 150, 180]}),
        (["hazard-curve", "--t-max", "2h", "--step", "10m", "--out-dir", "hazard"], "hazard",
         {"kind": ["geometric"], "shape": []}),
        (["lr-curve", "--t-max", "10d", "--step", "1d", "--out-dir", "lr"], "lr",
         {"down_kind": ["zeta"], "shape": []}),
    ):
        assert dispatch(argv) == 0
        manifest = json.loads(Path(out_dir, "manifest.json").read_text())
        assert {key: manifest["config"][key] for key in resolved} == resolved
    cells = json.loads(Path("utility/u.json").read_text())["cells"]
    assert len(cells) == 18


def test_a_manifest_config_reruns_the_command(tmp_path, capsys):
    # the manifest's config, nulls included, reads back as a config section
    assert dispatch(_simulate_args(tmp_path / "a", "report.json")) == 0
    config = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
    assert config["threads"] is None and config["theta_star_days"] is None
    config["out"] = str(tmp_path / "b" / "report.json")
    (tmp_path / "config.json").write_text(json.dumps({"simulate": config}))
    assert dispatch(["simulate", "--config", str(tmp_path / "config.json"), "--seed", "5"]) == 0
    for name in ("report.json", "manifest.json"):
        a, b = ((tmp_path / run / name).read_text() for run in ("a", "b"))
        assert a.replace(str(tmp_path / "a"), "") == b.replace(str(tmp_path / "b"), "")


@pytest.mark.parametrize("key", ["theta_days", "availabilities"])
def test_fft_table_rejects_an_empty_config_list(key, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"fft-table": {key: []}}))
    out = tmp_path / "fft.csv"
    assert dispatch(["fft-table", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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

    # a shape adds its negative-binomial law to the kinds
    assert (
        dispatch(
            ["ccdf-curve", "--kind", "geometric", "--shape", "0.15", "--mean", "1h",
             "--t-max", "2h", "--step", "10m", "--out-dir", str(tmp_path)]
        )
        == 0
    )
    assert (tmp_path / "inverse_ccdf_geometric.csv").exists()
    assert (tmp_path / "inverse_ccdf_negative-binomial_n0.15.csv").exists()

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


def test_curve_csv_output(tmp_path, capsys):
    argv = ["hazard-curve", "--kind", "degenerate", "--mean", "1h", "--t-max", "2h",
            "--step", "1800s", "--out-dir", str(tmp_path)]
    assert dispatch(argv) == 0
    path = tmp_path / "inverse_hazard_degenerate.csv"
    assert [p.name for p in tmp_path.glob("*.csv")] == [path.name]
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t_seconds", "value"]
    assert rows[-1][1] == "inf"
    assert path.read_bytes().endswith(b",inf\r\n")

    argv = ["lr-curve", "--down-kind", "negative-binomial", "--shape", "6e-4",
            "--t-max", "2d", "--step", "1d", "--out-dir", str(tmp_path)]
    assert dispatch(argv) == 0
    assert (tmp_path / "lr_negative-binomial_n0.0006.csv").exists()


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
    trace = tmp_path / "trace.csv"
    trace.write_text("post_key,creation_epoch_seconds,offset_seconds\n"
                     + "".join(f"p{i % 7},{100 * (i % 7)},{60 * i}\n" for i in range(40)))
    trace_args = ["utility", "--trace", str(trace), "--availability", "0.9",
                  "--theta-days", "30", "--seed", "6"]
    for name, argv in (("fft.csv", fft_args), ("utility.json", util_args),
                       ("trace.json", trace_args)):
        for run in ("a", "b"):
            assert dispatch(argv + ["--out", str(tmp_path / f"{run}-{name}")]) == 0
        assert (tmp_path / f"a-{name}").read_bytes() == (tmp_path / f"b-{name}").read_bytes()
    (cell,) = json.loads((tmp_path / "a-trace.json").read_text())["cells"]
    assert cell["allowed"] + cell["missed"] == 40


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
