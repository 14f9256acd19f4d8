"""Helpers shared by the workloads: paths, statistics, child processes."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_build" / "perfbench"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, child failure)."""


def require_sources() -> None:
    if not (SRC / "lethe" / "__init__.py").is_file():
        raise BenchError(f"no lethe sources under {SRC}; run from the repository root")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every child
    return env


def make_workdir(tag: str) -> Path:
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def client_and_server_cpus(index: int) -> tuple[int | None, int | None]:
    """Separate CPUs for the store's client and its index-th server, so that
    the client's parsing and checks do not land inside the server's replies.
    Successive servers alternate between two CPUs: on a shared host, the
    contention on one virtual CPU then does not decide a whole run.
    (None, None) when this process may use only one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    pair = (cpus[0], cpus[-1])
    return pair[index % 2], pair[1 - index % 2]


@contextmanager
def pinned(cpu: int | None):
    """Run the block, and start children, on one CPU (no-op for None)."""
    if cpu is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


def children_peak_rss_mb() -> float:
    """Largest peak RSS among waited-for children (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_worker(args: list[str], timeout: float) -> str:
    """Run a perfbench child to completion and return its stdout."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout
