"""One pass of a pipeline workload in a fresh process.

Usage: python perfbench/worker.py {paper-grid|per-post-sim} SEED [SPANS_PATH]

Prints one JSON object: the monotonic time at which imports and input
generation were done (`ready`), the wall time of the timed body (`run_s`),
the checks made on its outputs and a digest of those outputs.  With
SPANS_PATH the span wrappers are installed before lethe is imported and the
spans are written there at exit; they are switched off while checking.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time

DAY = 86400
AVAILABILITIES = (0.85, 0.90, 0.95)
THETA_DAYS = (30, 60, 90, 120, 150, 180)


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def _sigma_multi(down, theta: float, fp: float) -> float:
    """Flag-multi FP standard deviation used by the acceptance suite."""
    qs = [down.ccdf(int(theta) * k - 1) for k in range(1, 30)]
    clustering = sum((2 * k - 1) * q for k, q in enumerate(qs, 1)) / sum(qs)
    return math.sqrt(clustering * max(fp, 1.0))


# ---------------------------------------------------------------------------
# paper-grid: tuning, curves, the falsely-flagged table and its oracle


def paper_grid_inputs(seed: int):
    from lethe.adversary import FLAG_MULTI, SimulationConfig

    return SimulationConfig(  # the README's 1% scale
        initial_posts=1_000_000,
        creations_per_day=320,
        deletions_per_day=100,
        horizon_days=3650,
        availability_target=0.90,
        mean_down=3600.0,
        theta_star_for_tuning=180 * DAY,
        thresholds_to_evaluate=(180 * DAY,),
        scenario=FLAG_MULTI,
        scale_factor=1e-6,
        seed=seed,
        engine="accelerated",
    )


def paper_grid_job(base):
    from lethe import adversary, distributions, privacy, tuning

    mechanisms = {
        (a, d): tuning.build_mechanism(tuning.TuningSpec(a, 3600.0, d * DAY))
        for a in AVAILABILITIES
        for d in THETA_DAYS
    }
    up = distributions.make_distribution(distributions.GEOMETRIC, 9 * 3600)
    downs = [down for _, down in mechanisms.values()]
    curves = privacy.lr_curve(up, downs, 180 * DAY, DAY)
    inverse = [privacy.inverse_ccdf_curve(down, 180 * DAY, DAY) for down in downs]
    cells = adversary.fft_table(base, AVAILABILITIES, THETA_DAYS)
    expected = {}
    for (a, d), mechanism in mechanisms.items():
        cfg = dataclasses.replace(
            base, availability_target=a, theta_star_for_tuning=d * DAY,
            thresholds_to_evaluate=(d * DAY,),
        )
        expected[(a, d)] = adversary.analytic_expected_fp(cfg, d * DAY, mechanism=mechanism)
    return mechanisms, curves, inverse, cells, expected


def paper_grid_check(outputs, checks: Checks):
    mechanisms, curves, inverse, cells, expected = outputs
    by_key = {(c.scenario, c.availability, c.theta_days): c for c in cells}
    checks.expect(len(cells) == 2 * len(mechanisms), "fft_table returned every cell")
    for (a, d), (_, down) in mechanisms.items():
        cell = by_key[("flag-multi", a, float(d))]
        band = 3 * _sigma_multi(down, d * DAY, expected[(a, d)])
        checks.expect(abs(cell.fp - expected[(a, d)]) <= band, f"flag-multi FP {a}/{d}d within 3 sigma")
    for scenario in ("flag-once", "flag-multi"):
        for a in AVAILABILITIES:
            row = [by_key[(scenario, a, float(d))].fp_full_scale for d in THETA_DAYS]
            checks.expect(all(x > y for x, y in zip(row, row[1:])), f"{scenario} {a} decreasing in theta")
        for d in THETA_DAYS:
            col = [by_key[(scenario, a, float(d))].fp_full_scale for a in AVAILABILITIES]
            checks.expect(all(x > y for x, y in zip(col, col[1:])), f"{scenario} {d}d decreasing in availability")
    for _, points in curves:
        checks.expect(all(b >= a for (_, a), (_, b) in zip(points, points[1:])), "LR curve non-decreasing")
    for points in inverse:  # 1 / ccdf(t - 1): at least 1 and non-decreasing in t
        checks.expect(
            points[0][1] >= 1.0 and all(b >= a for (_, a), (_, b) in zip(points, points[1:])),
            "inverse CCDF curve >= 1 and non-decreasing",
        )
    return {
        "cells": [[c.scenario, c.availability, c.theta_days, c.fp] for c in cells],
        "expected": [[a, d, v] for (a, d), v in sorted(expected.items())],
        "lr_last": [points[-1][1] for _, points in curves],
        "inverse_last": [points[-1][1] for points in inverse],
    }


# ---------------------------------------------------------------------------
# per-post-sim: exact engine and interaction utility


def per_post_sim_inputs(seed: int):
    from lethe._rng import substream
    from lethe.adversary import SimulationConfig
    from lethe.utility import generate_synthetic_trace

    cfg = SimulationConfig(  # the configuration of benchmarks/bench_engines.py
        initial_posts=10_000,
        creations_per_day=32,
        deletions_per_day=10,
        horizon_days=730,
        availability_target=0.90,
        mean_down=3600.0,
        theta_star_for_tuning=30 * DAY,
        thresholds_to_evaluate=(30 * DAY, 90 * DAY),
        seed=seed,
        engine="exact",
    )
    trace = generate_synthetic_trace(5000, 4.0, rng=substream(seed, "trace"))
    return cfg, trace


def per_post_sim_job(inputs):
    from lethe import _rng, adversary, tuning, utility

    cfg, trace = inputs
    mechanism = tuning.build_mechanism(cfg.tuning_spec())
    exact = adversary.run_both_scenarios(cfg, mechanism=mechanism)
    accel = adversary.run_both_scenarios(
        dataclasses.replace(cfg, engine="accelerated"), mechanism=mechanism
    )
    utilities = {}
    for a in AVAILABILITIES:
        up, down = tuning.build_mechanism(tuning.TuningSpec(a, 3600.0, 30 * DAY))
        utilities[a] = utility.evaluate_utility(
            trace, up, down, _rng.substream(cfg.seed, "utility", a)
        )
    return mechanism, exact, accel, utilities


def per_post_sim_check(outputs, checks: Checks):
    (_, down), exact, accel, utilities = outputs
    for scenario in ("flag-once", "flag-multi"):
        for m_e, m_a in zip(exact[scenario].per_threshold, accel[scenario].per_threshold):
            theta = m_e.threshold_seconds

            def sigma(fp):
                if scenario == "flag-once":
                    return math.sqrt(max(fp, 1.0))
                return _sigma_multi(down, theta, fp)

            band = 3 * math.hypot(sigma(m_e.fp), sigma(m_a.fp))
            checks.expect(abs(m_e.fp - m_a.fp) <= band, f"{scenario} FP engines agree at {theta / DAY:g}d")
            tp_band = 3 * math.hypot(max(math.sqrt(m_e.tp), 5.0), max(math.sqrt(m_a.tp), 5.0))
            checks.expect(abs(m_e.tp - m_a.tp) <= tp_band, f"{scenario} TP engines agree at {theta / DAY:g}d")
    for a, result in utilities.items():
        checks.expect(result.utility >= 0.99, f"utility at {a} >= 0.99")
    return {
        "exact": [[s, m.threshold_seconds, m.tp, m.fp, m.fn] for s in exact for m in exact[s].per_threshold],
        "utility": [[a, r.allowed, r.missed] for a, r in utilities.items()],
    }


JOBS = {
    "paper-grid": (paper_grid_inputs, paper_grid_job, paper_grid_check),
    "per-post-sim": (per_post_sim_inputs, per_post_sim_job, per_post_sim_check),
}


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    tracer = None
    if len(sys.argv) > 3:
        import tracing

        tracer = tracing.install_and_write_at_exit(sys.argv[3])
    make_inputs, job, check = JOBS[name]
    inputs = make_inputs(seed)
    ready = time.monotonic()
    started, cpu_started = time.perf_counter(), time.process_time()
    outputs = job(inputs)
    run_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    if tracer is not None:
        tracer.enabled = False
    checks = Checks()
    digest = check(outputs, checks)
    print(json.dumps({
        "ready": ready, "run_s": run_s, "cpu_s": cpu_s, "attempted": checks.attempted,
        "failed": checks.failed, "digest": digest,
    }))


if __name__ == "__main__":
    main()
