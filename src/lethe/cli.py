"""Command-line entry point.

Subcommands: tune, hazard-curve, ccdf-curve, lr-curve, simulate, fft-table,
utility, store serve.  Curves land in CSV, reports in JSON; every run also
writes a manifest.json recording the seed, version and fully resolved
configuration, defaults included, so any output can be regenerated
bit-for-bit.  The curve commands draw one law per kind other than
negative-binomial and one negative-binomial law per --shape; a
negative-binomial kind without a shape is an error.

A JSON config file (--config) sets per-subcommand defaults in sections named
after the subcommand (``store`` for store serve).  Its keys are the flag names
with ``_`` in place of ``-``, and each value is typed and checked exactly as
its flag's argument: a JSON list for a repeatable or multi-value flag, true or
false for --synthetic, a string or number for any other, null for the
default.  A flag given on the command line overrides its config value; a
repeatable flag replaces a config list rather than extending it.  Durations
accept unit suffixes (s, m, h, d).  The seed falls back to the LETHE_SEED
environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .adversary import (
    AVAILABILITY_GRID,
    DAY,
    FLAG_MULTI,
    FLAG_ONCE,
    THETA_DAYS_GRID,
    SimulationConfig,
    fft_table,
    run_simulation,
)
from .distributions import (
    GEOMETRIC,
    KINDS,
    NEGATIVE_BINOMIAL,
    make_distribution,
)
from .privacy import availability, inverse_ccdf_curve, inverse_hazard_curve, lr_curve
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

# namespace keys that are parser bookkeeping, not command options: no config
# key may set them and the manifest leaves them out
_NON_OPTIONS = ("command", "store_command", "config", "seed", "run", "parser")


class UsageError(Exception):
    """Invalid flags or config; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse names the offending flag itself
        raise UsageError(message)


class _Append(argparse.Action):
    """A repeatable flag; its first use replaces the default (a config list)
    where argparse's own append would extend it."""

    def __call__(self, parser, namespace, values, option_string=None):
        current = getattr(namespace, self.dest)
        if current is self.default:
            current = []
        setattr(namespace, self.dest, [*current, values])


def parse_duration(text: str) -> float:
    """'90s', '15m', '9h', '30d' or bare seconds -> seconds."""
    text = str(text).strip()
    units = {"s": 1, "m": 60, "h": 3600, "d": 86400}
    suffix = text[-1].lower() if text else ""
    try:
        value = float(text[:-1]) * units[suffix] if suffix in units else float(text)
    except ValueError:
        raise UsageError(f"cannot parse duration {text!r} (use s/m/h/d suffixes)")
    if not abs(value) < float("inf"):
        raise UsageError(f"duration {text!r} is not finite")
    return value


def _duration(text: str) -> str:
    """A duration flag's type: its text, once parse_duration accepts it."""
    try:
        parse_duration(text)
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _config_section(path: str | None, command: str) -> dict:
    """The --config file's section for ``command``; {} without a file."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"--config {path}: {exc}")
    if not isinstance(config, dict):
        raise UsageError(f"--config {path}: top level must be an object")
    section = config.get(command, {})
    if not isinstance(section, dict):
        raise UsageError(f"--config {path}: section {command!r} must be an object")
    return section


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, key: str, value):
    """A config value typed and checked as its flag's argument would be: a
    switch takes true or false, a repeatable or multi-value option a JSON list
    of strings or numbers, any other option a string or number."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise UsageError(f"config key {key!r} takes true or false, got {value!r}")
    many = isinstance(action, _Append) or action.nargs == "+"
    items = value if many and isinstance(value, list) else [value]
    if many != isinstance(value, list) or not all(
        isinstance(item, (str, int, float)) and not isinstance(item, bool) for item in items
    ):
        shape = "a JSON list of strings or numbers" if many else "a string or number"
        raise UsageError(f"config key {key!r} takes {shape}, got {value!r}")
    try:
        typed = [parser._get_value(action, str(item)) for item in items]
        for item in typed:
            parser._check_value(action, item)
    except argparse.ArgumentError as exc:
        raise UsageError(f"config key {key!r}: {exc.message}")
    return typed if many else typed[0]


def _options(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items() if key not in _NON_OPTIONS}


def _write_manifest(out_dir: Path, args: argparse.Namespace) -> None:
    manifest = {
        "command": "store-serve" if args.command == "store" else args.command,
        "version": __version__,
        "seed": args.seed,
        "config": _options(args),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Curves and the fft table; the default dialect ends lines in \\r\\n."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(args, payload: dict, shown) -> int:
    """The JSON report to --out, its manifest beside it, ``shown`` on stdout."""
    out = Path(args.out)
    _write_json(out, payload)
    _write_manifest(out.parent, args)
    print(json.dumps(shown, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tune(args) -> int:
    if args.availability is None:
        raise UsageError("--availability is required")
    if args.theta is None:
        raise UsageError("--theta is required")
    mean_down = parse_duration(args.mean_down)
    theta = parse_duration(args.theta)
    up, down = build_mechanism(TuningSpec(args.availability, mean_down, theta))
    result = {
        "mean_up_seconds": up.mean,
        "mean_down_seconds": mean_down,
        "shape_n": down.shape,
        "availability": availability(up.mean, mean_down),
        "theta_star_seconds": theta,
    }
    return _write_report(args, result, result)


def _curve_laws(kinds, shapes, mean: float) -> list:
    """One law per kind other than negative-binomial, then one
    negative-binomial law per shape, all of the given mean."""
    if NEGATIVE_BINOMIAL in kinds and not shapes:
        raise UsageError("--shape is required for negative-binomial")
    laws = [make_distribution(kind, mean) for kind in kinds if kind != NEGATIVE_BINOMIAL]
    laws += [make_distribution(NEGATIVE_BINOMIAL, mean, shape=shape) for shape in shapes]
    if not laws:
        raise UsageError("no distributions requested")
    return laws


def _cmd_curve(args) -> int:
    """One CSV per law, <figure>_<kind>[_n<shape>].csv, then the manifest."""
    if args.command == "lr-curve":
        up = make_distribution(GEOMETRIC, parse_duration(args.up_mean))
        laws = _curve_laws(args.down_kind, args.shape, parse_duration(args.down_mean))
        figure, curve = "lr", lambda law, t_max, step: lr_curve(up, [law], t_max, step)[0][1]
    else:
        laws = _curve_laws(args.kind, args.shape, parse_duration(args.mean))
        figure, curve = {
            "hazard-curve": ("inverse_hazard", inverse_hazard_curve),
            "ccdf-curve": ("inverse_ccdf", inverse_ccdf_curve),
        }[args.command]
    t_max = int(parse_duration(args.t_max))
    step = int(parse_duration(args.step))
    out_dir = Path(args.out_dir)
    for law in laws:
        points = curve(law, t_max, step)
        if figure == "lr":  # log10 scale to match the log-scaled likelihood-ratio figures
            points = [(t, math.log10(v) if 0.0 < v < math.inf else v) for t, v in points]
        shape = "" if law.shape is None else f"_n{law.shape:g}"
        rows = [(t, f"{v:.12g}") for t, v in points]
        _write_csv(out_dir / f"{figure}_{law.kind}{shape}.csv", ["t_seconds", "value"], rows)
    _write_manifest(out_dir, args)
    return 0


def _simulation_config(args, thetas, theta_star_seconds, scenario) -> SimulationConfig:
    return SimulationConfig(
        initial_posts=args.initial_posts,
        creations_per_day=args.creations_per_day,
        deletions_per_day=args.deletions_per_day,
        horizon_days=args.horizon_days,
        availability_target=args.availability,
        mean_down=args.mean_down_seconds,
        theta_star_for_tuning=theta_star_seconds,
        thresholds_to_evaluate=tuple(thetas),
        scenario=scenario,
        scale_factor=args.scale_factor,
        seed=args.seed,
        engine=args.engine,
        threads=args.threads,
    )


def _cmd_simulate(args) -> int:
    if not args.theta_days:
        raise UsageError("--theta-days is required (repeat for several thresholds)")
    thetas = [d * DAY for d in args.theta_days]
    theta_star = thetas[0] if args.theta_star_days is None else args.theta_star_days * DAY
    cfg = _simulation_config(args, thetas, theta_star, _SCENARIO_NAMES[args.scenario])
    report = run_simulation(cfg)
    payload = {
        "scenario": report.scenario,
        "engine": report.engine,
        "seed": report.seed,
        "scale_factor": cfg.scale_factor,
        "per_threshold": [
            {
                **{k: v for k, v in dataclasses.asdict(m).items() if k != "threshold_seconds"},
                "theta_days": m.threshold_seconds / DAY,
                "theta_seconds": m.threshold_seconds,
            }
            for m in report.per_threshold
        ],
    }
    return _write_report(args, payload, payload["per_threshold"])


def _cmd_fft_table(args) -> int:
    if not (args.availabilities and args.theta_days):
        raise UsageError("--availabilities and --theta-days each need at least one value")
    theta = args.theta_days[0] * DAY
    base = _simulation_config(args, [theta], theta, FLAG_MULTI)
    cells = fft_table(base, args.availabilities, args.theta_days)
    out = Path(args.out)
    header = ["scenario", "availability", "theta_days", "fp", "fp_full_scale"]
    rows = [(c.scenario, c.availability, c.theta_days, c.fp, f"{c.fp_full_scale:.6g}")
            for c in cells]
    _write_csv(out, header, rows)
    _write_manifest(out.parent, args)
    return 0


def _cmd_utility(args) -> int:
    if not (args.availability and args.theta_days):
        raise UsageError("--availability and --theta-days each need at least one value")
    if args.trace:
        trace = load_trace(args.trace)
    elif args.synthetic:
        trace = generate_synthetic_trace(
            args.posts,
            args.interactions_mean,
            args.decay_mean_seconds,
            rng=substream(args.seed, "trace"),
        )
    else:
        raise UsageError("one of --trace or --synthetic is required")
    cells = []
    for avail in args.availability:
        for days in args.theta_days:
            up, down = build_mechanism(TuningSpec(avail, args.mean_down_seconds, days * DAY))
            result = evaluate_utility(
                trace, up, down, substream(args.seed, "utility", avail, days)
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
    return _write_report(args, {"seed": args.seed, "cells": cells}, cells)


def _cmd_store_serve(args) -> int:
    if not 0 <= args.port <= 65535:
        raise UsageError(f"--port must be in 0..65535, got {args.port}")
    period = args.updater_period_seconds
    if not 0 < period < float("inf"):
        raise UsageError(f"--updater-period-seconds must be positive and finite, got {period}")
    up, down = build_mechanism(
        TuningSpec(args.availability, args.mean_down_seconds, args.theta_days * DAY)
    )
    store = PostStore(
        up, down, seed=args.seed, data_dir=args.data_dir, horizon=args.horizon_days * DAY
    )
    from .server import StoreServer

    server = StoreServer(store, host=args.host, port=args.port, updater_period=period)
    if args.data_dir:
        _write_manifest(Path(args.data_dir), args)
    host, port = server.address
    print(f"store listening on {host}:{port}", flush=True)
    try:
        server.serve_background().join()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        store.close()
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(parser, run):
    parser.add_argument("--config", help="JSON config file with per-command sections")
    parser.add_argument("--seed", type=int, help="global seed (default: LETHE_SEED or 0)")
    parser.set_defaults(run=run, parser=parser)


def _add_population_flags(parser):
    parser.add_argument("--initial-posts", type=int, default=1_000_000)
    parser.add_argument("--creations-per-day", type=int, default=320)
    parser.add_argument("--deletions-per-day", type=int, default=100)
    parser.add_argument("--horizon-days", type=int, default=3650)
    parser.add_argument("--availability", type=float, default=0.9)
    parser.add_argument("--mean-down-seconds", type=float, default=3600.0)
    parser.add_argument("--scale-factor", type=float, default=1e-6)
    parser.add_argument("--engine", choices=["exact", "accelerated"], default="accelerated")
    parser.add_argument(
        "--threads",
        type=int,
        help="worker count of either engine (default: the CPUs it may run on): processes "
        "for the exact engine, threads for the accelerated one; counts do not depend on it",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="lethe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune", help="availability + threshold estimate -> mechanism parameters")
    _add_common(p, _cmd_tune)
    p.add_argument("--availability", type=float)
    p.add_argument("--mean-down", type=_duration, default="1h", help="duration, e.g. 1h")
    p.add_argument("--theta", type=_duration, help="decision-threshold estimate, e.g. 30d")
    p.add_argument("--out", default="tune.json")

    for name, mean, help_text in (
        ("hazard-curve", "9h", "inverse hazard rate against last up duration"),
        ("ccdf-curve", "1h", "inverse CCDF against last down duration"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, _cmd_curve)
        p.add_argument("--kind", action=_Append, choices=list(KINDS), default=[GEOMETRIC])
        p.add_argument("--mean", type=_duration, default=mean, help="duration, e.g. 9h")
        p.add_argument("--shape", type=float, action=_Append, default=[],
                       help="negative-binomial shape n (repeatable)")
        p.add_argument("--t-max", type=_duration, default="24h", help="duration, e.g. 24h")
        p.add_argument("--step", type=_duration, default="60s", help="duration, e.g. 60s")
        p.add_argument("--out-dir", default=".")

    p = sub.add_parser("lr-curve", help="likelihood ratio against down-elapsed time")
    _add_common(p, _cmd_curve)
    p.add_argument("--up-mean", type=_duration, default="9h", help="geometric up mean, e.g. 9h")
    p.add_argument("--down-mean", type=_duration, default="1h", help="down mean, e.g. 1h")
    p.add_argument("--down-kind", action=_Append, choices=list(KINDS), default=["zeta"])
    p.add_argument("--shape", type=float, action=_Append, default=[],
                   help="negative-binomial shape n (repeatable)")
    p.add_argument("--t-max", type=_duration, default="180d")
    p.add_argument("--step", type=_duration, default="1d")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("simulate", help="adversary precision/recall simulation")
    _add_common(p, _cmd_simulate)
    _add_population_flags(p)
    p.add_argument("--theta-days", type=float, action=_Append)
    p.add_argument("--theta-star-days", type=float)
    p.add_argument("--scenario", choices=["once", "multi"], default="multi")
    p.add_argument("--out", default="report.json")

    p = sub.add_parser("fft-table", help="falsely-flagged counts over the full grid")
    _add_common(p, _cmd_fft_table)
    _add_population_flags(p)
    p.add_argument("--availabilities", type=float, nargs="+", default=AVAILABILITY_GRID)
    p.add_argument("--theta-days", type=float, nargs="+", default=THETA_DAYS_GRID)
    p.add_argument("--out", default="fft_table.csv")

    p = sub.add_parser("utility", help="fraction of interactions surviving withdrawal")
    _add_common(p, _cmd_utility)
    p.add_argument("--trace", help="interaction trace CSV")
    p.add_argument("--synthetic", action="store_const", const=True)
    p.add_argument("--posts", type=int, default=2000)
    p.add_argument("--interactions-mean", type=float, default=4.0)
    p.add_argument("--decay-mean-seconds", type=float, default=DEFAULT_DECAY_MEAN)
    p.add_argument("--availability", type=float, action=_Append, default=AVAILABILITY_GRID)
    p.add_argument("--mean-down-seconds", type=float, default=3600.0)
    p.add_argument("--theta-days", type=float, action=_Append, default=THETA_DAYS_GRID)
    p.add_argument("--out", default="utility.json")

    p = sub.add_parser("store", help="archival store commands")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    p = store_sub.add_parser("serve", help="run the NDJSON/TCP store server")
    _add_common(p, _cmd_store_serve)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7007)
    p.add_argument("--availability", type=float, default=0.9)
    p.add_argument("--mean-down-seconds", type=float, default=3600.0)
    p.add_argument("--theta-days", type=float, default=30.0)
    p.add_argument("--data-dir")
    p.add_argument(
        "--horizon-days",
        type=int,
        default=365,
        help="how far past now the store's record() draws a schedule; serving ignores it",
    )
    p.add_argument(
        "--updater-period-seconds",
        type=float,
        default=3600.0,
        help="seconds between log checkpoints; cursors move every loop turn regardless",
    )

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a config section becomes the command's defaults, so flags still win
        section = _config_section(args.config, args.command)
        unknown = set(section) - set(_options(args))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        actions = {action.dest: action for action in args.parser._actions}
        args.parser.set_defaults(**{
            key: _config_value(args.parser, actions[key], key, value)
            for key, value in section.items()
            if value is not None
        })
        args = parser.parse_args(argv)
        if args.seed is None:
            args.seed = int(os.environ.get("LETHE_SEED") or 0)
        return args.run(args)
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
