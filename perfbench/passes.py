"""paper-grid and per-post-sim: repeated passes of a fixed job.

Each pass is a fresh process (perfbench/worker.py), so imports and input
generation, which users pay on every run, are set-up and are timed on
every pass.  Passes repeat until the run's seconds are used, at least
twice, and every pass of one seed must produce identical outputs.
"""

from __future__ import annotations

import json
import shutil
import time
from statistics import mean

from common import HERE, children_peak_rss_mb, make_workdir, median, run_worker
from layers import pipeline_layers

MIN_PASSES = 2
PASS_TIMEOUT_S = 80


def _passes(name: str, seed: int, seconds: float, workdir, traced: bool) -> list[dict]:
    results = []
    started = time.monotonic()
    while len(results) < MIN_PASSES or time.monotonic() - started < seconds:
        args = [str(HERE / "worker.py"), name, str(seed)]
        spans = workdir / f"spans{len(results)}.jsonl"
        if traced:
            args.append(str(spans))
        spawned = time.monotonic()
        out = json.loads(run_worker(args, PASS_TIMEOUT_S).splitlines()[-1])
        out["setup_s"] = out["ready"] - spawned
        out["spans"] = spans
        results.append(out)
    return results


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = make_workdir(name)
    try:
        plain = _passes(name, seed, seconds, workdir, traced=False)
        peak_rss_mb = children_peak_rss_mb()
        traced = _passes(name, seed, seconds, workdir, traced=True) if trace else []
        every = plain + traced
        failures = [f for p in every for f in p["failed"]]
        attempted = sum(p["attempted"] for p in every) + len(every) - 1
        failures += [
            f"pass {i} output differs from pass 0"
            for i, p in enumerate(every[1:], 1)
            if p["digest"] != every[0]["digest"]
        ]
        run_s = mean([p["run_s"] for p in plain])
        metrics = {
            "setup_s": (median([p["setup_s"] for p in plain]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "run_s": (run_s, "s"),
        }
        details = {
            "passes": len(plain),
            "run_s_each": [p["run_s"] for p in plain],
            "cpu_s_each": [p["cpu_s"] for p in plain],
            "setup_s_each": [p["setup_s"] for p in plain],
            "failures": failures[:5],
        }
        layers = None
        if trace:
            traced_run_s = mean([p["run_s"] for p in traced])
            details["traced_run_s"] = traced_run_s
            layers = pipeline_layers(
                [p["spans"] for p in traced], sum(p["run_s"] for p in traced), traced_run_s / run_s
            )
        return {
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
            "details": details,
            "layers": layers,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
