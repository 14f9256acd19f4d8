"""Interaction utility: the fraction of interactions that survive withdrawal.

An interaction (a reshare, reply, etc.) at offset tau after its post's
creation is missed when the post happens to be hidden at that moment.
Utility is 1 - fraction missed.  Because engagement is heavily front-loaded
in practice (most reshares land within the first hour, inside the post's
initial up phase), utility sits far above raw availability.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import DurationDistribution
# generate_schedule is unused here but stays importable from this module:
# perfbench/tracing.py wraps it by this name.
from .schedule import first_toggle, generate_schedule, schedule_key, toggle_batches  # noqa: F401

# Exponential offset decay putting ~60% of interactions inside the first
# hour: P(offset < 3600) = 1 - exp(-3600/3930) = 0.600.
DEFAULT_DECAY_MEAN = 3930.0


class TraceFormatError(ValueError):
    """Raised for malformed interaction-trace files."""


@dataclass(frozen=True)
class TracePost:
    post_key: str
    creation_time: int
    offsets: np.ndarray  # int64 seconds after creation, sorted


@dataclass(frozen=True)
class UtilityResult:
    """allowed/missed interaction counts; utility is None for empty traces."""

    allowed: int
    missed: int

    @property
    def total(self) -> int:
        return self.allowed + self.missed

    @property
    def utility(self) -> float | None:
        if self.total == 0:
            return None
        return self.allowed / self.total


def load_trace(path: str | Path) -> tuple[TracePost, ...]:
    """Read a trace CSV: post_key, creation_epoch_seconds, offset_seconds.

    One row per interaction; offsets are sorted per post on load.  Malformed
    rows are reported with their line number.
    """
    by_post: dict[str, tuple[int, list[int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return ()
        expected = ["post_key", "creation_epoch_seconds", "offset_seconds"]
        if [h.strip() for h in header] != expected:
            raise TraceFormatError(
                f"{path}: expected header {','.join(expected)}, got {','.join(header)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise TraceFormatError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            key = row[0].strip()
            try:
                creation = int(row[1])
                offset = int(row[2])
            except ValueError as exc:
                raise TraceFormatError(f"{path}:{line_no}: {exc}") from None
            if offset < 0:
                raise TraceFormatError(f"{path}:{line_no}: negative offset {offset}")
            if key in by_post:
                if by_post[key][0] != creation:
                    raise TraceFormatError(
                        f"{path}:{line_no}: post {key} has conflicting creation times"
                    )
                by_post[key][1].append(offset)
            else:
                by_post[key] = (creation, [offset])
    return tuple(
        TracePost(key, creation, np.sort(np.asarray(offs, dtype=np.int64)))
        for key, (creation, offs) in by_post.items()
    )


def generate_synthetic_trace(
    n_posts: int,
    interactions_per_post_mean: float,
    decay_mean: float = DEFAULT_DECAY_MEAN,
    *,
    rng: np.random.Generator,
) -> tuple[TracePost, ...]:
    """Poisson interaction counts with exponentially decaying offsets."""
    if n_posts < 1 or interactions_per_post_mean <= 0 or decay_mean <= 0:
        raise ValueError("synthetic trace parameters must be positive")
    counts = rng.poisson(interactions_per_post_mean, size=n_posts)
    # one call draws what one call per post would, post after post
    offsets = np.floor(rng.exponential(decay_mean, size=counts.sum())).astype(np.int64)
    offsets = offsets[np.lexsort((offsets, np.repeat(np.arange(n_posts), counts)))]
    ends = np.cumsum(counts).tolist()
    starts = [0] + ends
    return tuple(TracePost(f"p{i:08d}", 0, offsets[starts[i] : end]) for i, end in enumerate(ends))


def evaluate_utility(
    trace: tuple[TracePost, ...],
    up: DurationDistribution,
    down: DurationDistribution,
    rng: np.random.Generator,
) -> UtilityResult:
    """Simulate a schedule per post and count interactions landing up.  Each
    post is keyed by its post_key under one secret drawn from rng, so the
    result does not depend on the order of the posts.  A post whose
    interactions all come before its first toggle misses none; the rest are
    drawn in batches, offset to each post's creation."""
    secret = rng.bytes(32)
    keys = ((post, schedule_key(secret, post.post_key)) for post in trace if len(post.offsets))
    late = [(post, key) for post, key in keys if post.offsets[-1] >= first_toggle(up, key)]
    draws = ((key, 0, post.offsets[-1] + 1, 0) for post, key in late)
    missed = 0
    for batch in toggle_batches(up, down, draws):
        toggles = batch.toggles()
        posts = late[batch.first : batch.first + len(batch.bounds) - 1]
        for (post, _), lo, hi in zip(posts, batch.bounds, batch.bounds[1:]):
            flips = np.searchsorted(toggles[lo:hi].ravel(), post.offsets, side="right")
            missed += int(np.count_nonzero(flips & 1))  # odd: down
    total = sum(len(post.offsets) for post in trace)
    return UtilityResult(allowed=total - missed, missed=missed)
