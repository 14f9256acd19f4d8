"""Lethe benchmark: one workload per run, one JSON result on the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload store-mixed --seed 1 --seconds 20 --trace 0

Workloads: store-mixed, paper-grid, per-post-sim (see perfbench/README.md).
--trace 0 reports the end-to-end metrics with no instrumentation installed;
--trace 1 reruns the workload with spans recorded around every layer and
reports the per-layer metrics.  The line before the result is a provenance
record (versions, CPUs, load, seed, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from common import SRC, BenchError, require_sources

WORKLOADS = ("store-mixed", "paper-grid", "per-post-sim")


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "store-mixed":
        import store_mixed

        return store_mixed.run(seed, seconds, trace)
    import passes

    return passes.run(name, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
        sys.path.insert(0, str(SRC))
        info = provenance(args.seed)
        started = time.monotonic()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info["wall_s"] = time.monotonic() - started
    info["error_rate"] = result["failed"] / result["attempted"]
    info["details"] = result["details"]
    metrics = result["layers"] if args.trace else result["metrics"]
    info["end_to_end"] = {k: v for k, (v, _) in result["metrics"].items()}
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
