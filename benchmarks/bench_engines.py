"""Throughput of schedule generation and of the two adversary-simulation engines.

A first row times schedule generation on the tuned 90% / 30 d mechanism, the
layer under the store, the exact engine and evaluate_utility, both ways it
is called: microseconds per 1-year schedule drawn one post at a time
(generate_schedule, a store put's cost), and blocks (256 up and 256 down
draws each) per second drawn many posts at once (toggle_batches, as the
exact engine, evaluate_utility and store replay draw them).

The exact engine draws every up/down phase of every post; the accelerated
engine replaces phase drawing with renewal-approximation sampling.  This
prints posts/second and the worker count for each, the exact engine both on
one worker and on the default (one per CPU), and the accelerated engine's
speedup over each, at a population the exact engine can still handle.  A last row times fft_table
on the README's 1% scale (2.17M posts x 18 cells).  The accelerated engine
draws each chunk's population once for the whole grid and then makes a
Poisson and a binomial per exposure day for each cell, so that row counts
cells x posts per second.
Run: python benchmarks/bench_engines.py
"""

import dataclasses
import time

from lethe.adversary import DAY, SimulationConfig, fft_table, run_both_scenarios
from lethe.schedule import generate_schedule, schedule_key, toggle_batches
from lethe.tuning import build_mechanism

YEAR = 365 * DAY

CFG = SimulationConfig(
    initial_posts=10_000,
    creations_per_day=32,
    deletions_per_day=10,
    horizon_days=730,
    availability_target=0.90,
    mean_down=3600.0,
    theta_star_for_tuning=30 * DAY,
    thresholds_to_evaluate=(30 * DAY, 90 * DAY),
    seed=0,
    engine="exact",
)

FFT_BASE = SimulationConfig(  # the README's 1% scale
    initial_posts=1_000_000,
    creations_per_day=320,
    deletions_per_day=100,
    horizon_days=3650,
    availability_target=0.90,
    mean_down=3600.0,
    theta_star_for_tuning=180 * DAY,
    thresholds_to_evaluate=(180 * DAY,),
    scale_factor=1e-6,
    seed=0,
    engine="accelerated",
)


def schedule_row(mechanism, posts=2000):
    up, down = mechanism
    keys = [schedule_key(bytes(32), i) for i in range(posts)]
    started = time.perf_counter()
    for key in keys:
        generate_schedule(up, down, 0, YEAR, key)
    one_post = time.perf_counter() - started
    started = time.perf_counter()
    blocks = 0
    for _, toggles, _ in toggle_batches(up, down, ((key, 0, YEAR, 0) for key in keys)):
        blocks += len(toggles) // 512  # 512 toggles per block
    many_posts = time.perf_counter() - started
    print(
        f"{'schedule':>12}: {one_post / posts * 1e6:.0f} us per 1-year schedule one post "
        f"at a time, {blocks / many_posts:.0f} blocks/s many posts at once "
        f"({posts} posts, {blocks} blocks)"
    )


def main():
    mechanism = build_mechanism(CFG.tuning_spec())
    schedule_row(mechanism)
    timings = {}
    for engine, threads in (("exact", 1), ("exact", None), ("accelerated", None)):
        cfg = dataclasses.replace(CFG, engine=engine, threads=threads)
        started = time.perf_counter()
        reports = run_both_scenarios(cfg, mechanism=mechanism)
        elapsed = time.perf_counter() - started
        timings[engine, cfg.workers] = elapsed
        fp = reports["flag-multi"].per_threshold[0].fp
        print(
            f"{engine:>12}: {elapsed:8.2f} s "
            f"({cfg.total_posts / elapsed:>12.0f} posts/s on {cfg.workers} workers, "
            f"multi FP@30d = {fp})"
        )
    accelerated = timings["accelerated", CFG.workers]
    print()
    for workers in sorted({1, CFG.workers}):
        print(
            f"accelerated speedup over the exact engine on {workers} workers: "
            f"x{timings['exact', workers] / accelerated:.0f}"
        )

    started = time.perf_counter()
    cells = fft_table(FFT_BASE)
    elapsed = time.perf_counter() - started
    grid = len(cells) // 2  # two scenarios per grid cell
    print(
        f"{'fft_table':>12}: {elapsed:8.2f} s "
        f"({grid * FFT_BASE.total_posts / elapsed:>12.0f} cell-posts/s on "
        f"{FFT_BASE.workers} workers, {grid} cells x {FFT_BASE.total_posts} posts)"
    )


if __name__ == "__main__":
    main()
