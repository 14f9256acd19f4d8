"""Command-line entry point.

Subcommands: tune, hazard-curve, ccdf-curve, lr-curve, simulate, fft-table,
utility, store serve.  Curves land in CSV, reports in JSON; every run also
writes a manifest.json recording the seed, version and fully resolved
configuration so any output can be regenerated bit-for-bit.

A JSON config file (--config) provides per-subcommand defaults in sections
named after the subcommand; any flag given on the command line overrides its
config value.  Durations accept unit suffixes (s, m, h, d).  The seed falls
back to the LETHE_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .adversary import (
    DAY,
    FLAG_MULTI,
    FLAG_ONCE,
    SimulationConfig,
    fft_table,
    run_simulation,
    write_fft_csv,
)
from .distributions import (
    GEOMETRIC,
    KINDS,
    NEGATIVE_BINOMIAL,
    make_distribution,
)
from .privacy import (
    availability,
    curve_filename,
    inverse_ccdf_curve,
    inverse_hazard_curve,
    lr_curve,
    write_curve_csv,
)
from .store import PostStore
from .tuning import TuningSpec, build_mechanism
from .utility import (
    DEFAULT_DECAY_MEAN,
    evaluate_utility,
    generate_synthetic_trace,
    load_trace,
)
from ._rng import substream

_SCENARIO_NAMES = {"once": FLAG_ONCE, "multi": FLAG_MULTI}


class UsageError(Exception):
    """Invalid flags or config; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse names the offending flag itself
        raise UsageError(message)


def parse_duration(text: str) -> float:
    """'90s', '15m', '9h', '30d' or bare seconds -> seconds."""
    text = str(text).strip()
    units = {"s": 1, "m": 60, "h": 3600, "d": 86400}
    suffix = text[-1].lower() if text else ""
    try:
        if suffix in units:
            return float(text[:-1]) * units[suffix]
        return float(text)
    except ValueError:
        raise UsageError(f"cannot parse duration {text!r} (use s/m/h/d suffixes)")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"--config {path}: {exc}")
    if not isinstance(config, dict):
        raise UsageError(f"--config {path}: top level must be an object")
    return config


def _merge(args: argparse.Namespace, section: dict, defaults: dict) -> dict:
    """Resolve option values: flag > config section > default."""
    unknown = set(section) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in section:
            resolved[key] = section[key]
        else:
            resolved[key] = default
    return resolved


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("LETHE_SEED")
    return int(env) if env else 0


def _write_manifest(out_dir: Path, command: str, seed: int, resolved: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": resolved,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tune(args, config) -> int:
    defaults = {
        "availability": None,
        "mean_down": "1h",
        "theta": None,
        "out": "tune.json",
    }
    opts = _merge(args, config.get("tune", {}), defaults)
    if opts["availability"] is None:
        raise UsageError("--availability is required")
    if opts["theta"] is None:
        raise UsageError("--theta is required")
    avail = float(opts["availability"])
    mean_down = parse_duration(opts["mean_down"])
    theta = parse_duration(opts["theta"])
    up, down = build_mechanism(TuningSpec(avail, mean_down, theta))
    result = {
        "mean_up_seconds": up.mean,
        "mean_down_seconds": mean_down,
        "shape_n": down.shape,
        "availability": availability(up.mean, mean_down),
        "theta_star_seconds": theta,
    }
    out = Path(opts["out"])
    _write_json(out, result)
    _write_manifest(out.parent, "tune", _resolve_seed(args.seed), opts)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _build_curve_distributions(opts) -> list:
    mean = parse_duration(opts["mean"])
    shapes = [float(s) for s in (opts["shape"] or [])]
    kinds = opts["kind"] or [GEOMETRIC]
    dists = []
    for kind in kinds:
        if kind not in KINDS:
            raise UsageError(f"--kind {kind!r} is not one of {', '.join(KINDS)}")
        if kind == NEGATIVE_BINOMIAL:
            if not shapes:
                raise UsageError("--shape is required for negative-binomial")
            dists.extend(
                make_distribution(kind, mean, shape=s) for s in shapes
            )
        else:
            dists.append(make_distribution(kind, mean))
    return dists


def _cmd_curve(args, config, figure: str) -> int:
    defaults = {
        "kind": None,
        "mean": "9h" if figure == "inverse_hazard" else "1h",
        "shape": None,
        "t_max": "24h",
        "step": "60s",
        "out_dir": ".",
    }
    opts = _merge(args, config.get(args.command, {}), defaults)
    dists = _build_curve_distributions(opts)
    t_max = int(parse_duration(opts["t_max"]))
    step = int(parse_duration(opts["step"]))
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    generator = inverse_hazard_curve if figure == "inverse_hazard" else inverse_ccdf_curve
    for dist in dists:
        points = generator(dist, t_max, step)
        write_curve_csv(out_dir / curve_filename(figure, dist), points)
    _write_manifest(out_dir, args.command, _resolve_seed(args.seed), opts)
    return 0


def _cmd_lr_curve(args, config) -> int:
    defaults = {
        "up_mean": "9h",
        "down_mean": "1h",
        "down_kind": None,
        "shape": None,
        "t_max": "180d",
        "step": "1d",
        "out_dir": ".",
    }
    opts = _merge(args, config.get("lr-curve", {}), defaults)
    up = make_distribution(GEOMETRIC, parse_duration(opts["up_mean"]))
    down_mean = parse_duration(opts["down_mean"])
    downs = []
    for kind in opts["down_kind"] or ["zeta"]:
        if kind == NEGATIVE_BINOMIAL:
            continue
        downs.append(make_distribution(kind, down_mean))
    for shape in opts["shape"] or []:
        downs.append(make_distribution(NEGATIVE_BINOMIAL, down_mean, shape=float(shape)))
    if not downs:
        raise UsageError("no down distributions requested")
    t_max = int(parse_duration(opts["t_max"]))
    step = int(parse_duration(opts["step"]))
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for dist, points in lr_curve(up, downs, t_max, step):
        # log10 scale to match the log-scaled likelihood-ratio figures
        write_curve_csv(out_dir / curve_filename("lr", dist), points, log10=True)
    _write_manifest(out_dir, "lr-curve", _resolve_seed(args.seed), opts)
    return 0


_POPULATION_DEFAULTS = {
    "initial_posts": 1_000_000,
    "creations_per_day": 320,
    "deletions_per_day": 100,
    "horizon_days": 3650,
    "availability": 0.9,
    "mean_down_seconds": 3600.0,
    "scale_factor": 1e-6,
    "engine": "accelerated",
    "threads": None,
}


def _simulation_config(opts, thetas, scenario, seed) -> SimulationConfig:
    theta_star = opts.get("theta_star_days")
    theta_star_seconds = (
        float(theta_star) * DAY if theta_star is not None else float(thetas[0])
    )
    return SimulationConfig(
        initial_posts=int(opts["initial_posts"]),
        creations_per_day=int(opts["creations_per_day"]),
        deletions_per_day=int(opts["deletions_per_day"]),
        horizon_days=int(opts["horizon_days"]),
        availability_target=float(opts["availability"]),
        mean_down=float(opts["mean_down_seconds"]),
        theta_star_for_tuning=theta_star_seconds,
        thresholds_to_evaluate=tuple(float(t) for t in thetas),
        scenario=scenario,
        scale_factor=float(opts["scale_factor"]),
        seed=seed,
        engine=opts["engine"],
        threads=int(opts["threads"]) if opts["threads"] is not None else None,
    )


def _cmd_simulate(args, config) -> int:
    defaults = dict(_POPULATION_DEFAULTS)
    defaults.update(
        {"theta_days": None, "theta_star_days": None, "scenario": "multi", "out": "report.json"}
    )
    opts = _merge(args, config.get("simulate", {}), defaults)
    if not opts["theta_days"]:
        raise UsageError("--theta-days is required (repeat for several thresholds)")
    scenario = _SCENARIO_NAMES.get(opts["scenario"], opts["scenario"])
    if scenario not in (FLAG_ONCE, FLAG_MULTI):
        raise UsageError(f"--scenario must be 'once' or 'multi', got {opts['scenario']}")
    seed = _resolve_seed(args.seed)
    thetas = [float(d) * DAY for d in opts["theta_days"]]
    cfg = _simulation_config(opts, thetas, scenario, seed)
    report = run_simulation(cfg)
    payload = {
        "scenario": report.scenario,
        "engine": report.engine,
        "seed": report.seed,
        "scale_factor": cfg.scale_factor,
        "per_threshold": [
            {
                "theta_days": m.threshold_days,
                "theta_seconds": m.threshold_seconds,
                "tp": m.tp,
                "fp": m.fp,
                "fn": m.fn,
                "precision": m.precision,
                "recall": m.recall,
                "fp_full_scale": m.fp_full_scale,
                "tp_closed_form": m.tp_closed_form,
                "precision_closed_form": m.precision_closed_form,
            }
            for m in report.per_threshold
        ],
    }
    out = Path(opts["out"])
    _write_json(out, payload)
    _write_manifest(out.parent, "simulate", seed, opts)
    print(json.dumps(payload["per_threshold"], indent=2, sort_keys=True))
    return 0


def _cmd_fft_table(args, config) -> int:
    defaults = dict(_POPULATION_DEFAULTS)
    defaults.update(
        {
            "availabilities": [0.85, 0.90, 0.95],
            "theta_days": [30, 60, 90, 120, 150, 180],
            "out": "fft_table.csv",
        }
    )
    opts = _merge(args, config.get("fft-table", {}), defaults)
    seed = _resolve_seed(args.seed)
    thetas = [float(d) * DAY for d in opts["theta_days"]]
    base = _simulation_config(opts, thetas[:1], FLAG_MULTI, seed)
    cells = fft_table(
        base,
        availabilities=[float(a) for a in opts["availabilities"]],
        theta_days_grid=[float(d) for d in opts["theta_days"]],
    )
    out = Path(opts["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    write_fft_csv(out, cells)
    _write_manifest(out.parent, "fft-table", seed, opts)
    return 0


def _cmd_utility(args, config) -> int:
    defaults = {
        "trace": None,
        "synthetic": None,
        "posts": 2000,
        "interactions_mean": 4.0,
        "decay_mean_seconds": DEFAULT_DECAY_MEAN,
        "availability": None,
        "mean_down_seconds": 3600.0,
        "theta_days": None,
        "out": "utility.json",
    }
    opts = _merge(args, config.get("utility", {}), defaults)
    seed = _resolve_seed(args.seed)
    availabilities = [float(a) for a in (opts["availability"] or [0.85, 0.90, 0.95])]
    theta_days = [float(d) for d in (opts["theta_days"] or [30, 60, 90, 120, 150, 180])]
    if opts["trace"]:
        trace = load_trace(opts["trace"])
    elif opts["synthetic"]:
        trace = generate_synthetic_trace(
            int(opts["posts"]),
            float(opts["interactions_mean"]),
            float(opts["decay_mean_seconds"]),
            substream(seed, "trace"),
        )
    else:
        raise UsageError("one of --trace or --synthetic is required")
    cells = []
    for avail in availabilities:
        for days in theta_days:
            up, down = build_mechanism(
                TuningSpec(avail, float(opts["mean_down_seconds"]), days * DAY)
            )
            result = evaluate_utility(
                trace, up, down, substream(seed, "utility", avail, days)
            )
            cells.append(
                {
                    "availability": avail,
                    "theta_days": days,
                    "allowed": result.allowed,
                    "missed": result.missed,
                    "utility": result.utility,
                }
            )
    payload = {"seed": seed, "cells": cells}
    out = Path(opts["out"])
    _write_json(out, payload)
    _write_manifest(out.parent, "utility", seed, opts)
    print(json.dumps(cells, indent=2, sort_keys=True))
    return 0


def _cmd_store_serve(args, config) -> int:
    defaults = {
        "host": "127.0.0.1",
        "port": 7007,
        "availability": 0.9,
        "mean_down_seconds": 3600.0,
        "theta_days": 30.0,
        "data_dir": None,
        "horizon_days": 365,
        "updater_period_seconds": 3600.0,
    }
    opts = _merge(args, config.get("store", {}), defaults)
    if not 0 <= int(opts["port"]) <= 65535:
        raise UsageError(f"--port must be in 0..65535, got {opts['port']}")
    seed = _resolve_seed(args.seed)
    up, down = build_mechanism(
        TuningSpec(
            float(opts["availability"]),
            float(opts["mean_down_seconds"]),
            float(opts["theta_days"]) * DAY,
        )
    )
    store = PostStore(
        up,
        down,
        seed=seed,
        data_dir=opts["data_dir"],
        horizon=int(opts["horizon_days"]) * DAY,
    )
    from .server import StoreServer

    server = StoreServer(
        store,
        host=opts["host"],
        port=int(opts["port"]),
        updater_period=float(opts["updater_period_seconds"]),
    )
    if opts["data_dir"]:
        _write_manifest(Path(opts["data_dir"]), "store-serve", seed, opts)
    host, port = server.address
    print(f"store listening on {host}:{port}", flush=True)
    try:
        server.serve_background()
        server._updater.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        store.close()
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file with per-command sections")
    parser.add_argument("--seed", type=int, help="global seed (default: LETHE_SEED or 0)")


def _add_population_flags(parser):
    parser.add_argument("--initial-posts", type=int, dest="initial_posts")
    parser.add_argument("--creations-per-day", type=int, dest="creations_per_day")
    parser.add_argument("--deletions-per-day", type=int, dest="deletions_per_day")
    parser.add_argument("--horizon-days", type=int, dest="horizon_days")
    parser.add_argument("--availability", type=float)
    parser.add_argument("--mean-down-seconds", type=float, dest="mean_down_seconds")
    parser.add_argument("--scale-factor", type=float, dest="scale_factor")
    parser.add_argument("--engine", choices=["exact", "accelerated"])
    parser.add_argument(
        "--threads",
        type=int,
        help="worker count of either engine (default: CPU count): processes for "
        "the exact engine, threads for the accelerated one; counts do not depend on it",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="lethe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune", help="availability + threshold estimate -> mechanism parameters")
    _add_common(p)
    p.add_argument("--availability", type=float)
    p.add_argument("--mean-down", dest="mean_down", help="duration, e.g. 1h")
    p.add_argument("--theta", help="decision-threshold estimate, e.g. 30d")
    p.add_argument("--out")

    for name, help_text in (
        ("hazard-curve", "inverse hazard rate against last up duration"),
        ("ccdf-curve", "inverse CCDF against last down duration"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--kind", action="append", choices=list(KINDS))
        p.add_argument("--mean", help="duration, e.g. 9h")
        p.add_argument("--shape", action="append", help="negative-binomial shape n")
        p.add_argument("--t-max", dest="t_max", help="duration, e.g. 24h")
        p.add_argument("--step", help="duration, e.g. 60s")
        p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("lr-curve", help="likelihood ratio against down-elapsed time")
    _add_common(p)
    p.add_argument("--up-mean", dest="up_mean", help="geometric up mean, e.g. 9h")
    p.add_argument("--down-mean", dest="down_mean", help="down mean, e.g. 1h")
    p.add_argument("--down-kind", dest="down_kind", action="append", choices=list(KINDS))
    p.add_argument("--shape", action="append", help="negative-binomial shape n (repeatable)")
    p.add_argument("--t-max", dest="t_max")
    p.add_argument("--step")
    p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("simulate", help="adversary precision/recall simulation")
    _add_common(p)
    _add_population_flags(p)
    p.add_argument("--theta-days", dest="theta_days", type=float, action="append")
    p.add_argument("--theta-star-days", dest="theta_star_days", type=float)
    p.add_argument("--scenario", choices=["once", "multi"])
    p.add_argument("--out")

    p = sub.add_parser("fft-table", help="falsely-flagged counts over the full grid")
    _add_common(p)
    _add_population_flags(p)
    p.add_argument("--availabilities", type=float, nargs="+")
    p.add_argument("--theta-days", dest="theta_days", type=float, nargs="+")
    p.add_argument("--out")

    p = sub.add_parser("utility", help="fraction of interactions surviving withdrawal")
    _add_common(p)
    p.add_argument("--trace", help="interaction trace CSV")
    p.add_argument("--synthetic", action="store_const", const=True)
    p.add_argument("--posts", type=int)
    p.add_argument("--interactions-mean", dest="interactions_mean", type=float)
    p.add_argument("--decay-mean-seconds", dest="decay_mean_seconds", type=float)
    p.add_argument("--availability", type=float, action="append")
    p.add_argument("--mean-down-seconds", dest="mean_down_seconds", type=float)
    p.add_argument("--theta-days", dest="theta_days", type=float, action="append")
    p.add_argument("--out")

    p = sub.add_parser("store", help="archival store commands")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    p = store_sub.add_parser("serve", help="run the NDJSON/TCP store server")
    _add_common(p)
    p.add_argument("--host")
    p.add_argument("--port", type=int)
    p.add_argument("--availability", type=float)
    p.add_argument("--mean-down-seconds", dest="mean_down_seconds", type=float)
    p.add_argument("--theta-days", dest="theta_days", type=float)
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument(
        "--horizon-days",
        dest="horizon_days",
        type=int,
        help="how far past now the store's record() draws a schedule; serving ignores it",
    )
    p.add_argument("--updater-period-seconds", dest="updater_period_seconds", type=float)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(getattr(args, "config", None))
        if args.command == "tune":
            return _cmd_tune(args, config)
        if args.command == "hazard-curve":
            return _cmd_curve(args, config, "inverse_hazard")
        if args.command == "ccdf-curve":
            return _cmd_curve(args, config, "inverse_ccdf")
        if args.command == "lr-curve":
            return _cmd_lr_curve(args, config)
        if args.command == "simulate":
            return _cmd_simulate(args, config)
        if args.command == "fft-table":
            return _cmd_fft_table(args, config)
        if args.command == "utility":
            return _cmd_utility(args, config)
        if args.command == "store":
            return _cmd_store_serve(args, config)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
