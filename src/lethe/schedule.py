"""Per-post visibility schedules.

A schedule is the precomputed alternating sequence of up/down phases for one
post, stored as absolute toggle timestamps so that "is this post visible at
t" is a binary search rather than a walk (the store's hot read path).  The
post is up on [created_at, toggles[0]), down on [toggles[0], toggles[1]),
and so on; a deletion forces the observable state down from deleted_at
onward regardless of the schedule.

Schedules are immutable snapshots.  Extension draws more durations from the
generator state captured at construction and returns a new snapshot whose
existing toggles are unchanged, so cached reads stay valid.  Durations are
drawn in fixed-size blocks (an up block then a down block); because the
block discipline never depends on the requested horizon, extending in one
step or many yields the identical toggle sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import DurationDistribution
from .privacy import ObservationSummary

_BLOCK = 256

DEFAULT_HORIZON = 365 * 86400


def _generator_from_state(state: dict) -> np.random.Generator:
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = state
    return gen


@dataclass(frozen=True)
class Schedule:
    """Alternating up/down toggle timestamps for one post, from created_at."""

    created_at: int
    toggles: np.ndarray  # int64 absolute seconds, strictly increasing
    covered_until: int
    stream_state: dict  # generator state for prefix-stable extension

    def state_at(self, t: int) -> bool:
        """Scheduled (deletion-unaware) visibility at time t."""
        if t < self.created_at:
            raise ValueError(f"t={t} precedes schedule creation {self.created_at}")
        if t > self.covered_until:
            raise ValueError(
                f"t={t} beyond covered_until={self.covered_until}; extend first"
            )
        flips = int(np.searchsorted(self.toggles, t, side="right"))
        return flips % 2 == 0

    def phase_index(self, t: int) -> int:
        """Index of the phase containing t (0 = initial up; even = up)."""
        return int(np.searchsorted(self.toggles, t, side="right"))


def _draw_blocks(
    up: DurationDistribution,
    down: DurationDistribution,
    start: int,
    target: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Draw whole (up-block, down-block) rounds until coverage passes target.

    Callers pass start < target, so at least one round is drawn.  Each
    round interleaves its up and down durations and turns them into
    absolute toggles with one running sum from the previous round's end.
    """
    blocks: list[np.ndarray] = []
    t = start
    while t < target:
        steps = np.empty(2 * _BLOCK, dtype=np.int64)
        steps[0::2] = up.sample(rng, size=_BLOCK)
        steps[1::2] = down.sample(rng, size=_BLOCK)
        steps[0] += t
        np.cumsum(steps, out=steps)
        t = int(steps[-1])
        blocks.append(steps)
    return np.concatenate(blocks), t


def generate_schedule(
    up: DurationDistribution,
    down: DurationDistribution,
    t0: int,
    horizon: int,
    rng: np.random.Generator,
) -> Schedule:
    """Precompute toggles covering at least [t0, t0 + horizon], up phase first."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 second, got {horizon}")
    toggles, covered = _draw_blocks(up, down, int(t0), int(t0) + int(horizon), rng)
    return Schedule(
        created_at=int(t0),
        toggles=toggles,
        covered_until=covered,
        stream_state=rng.bit_generator.state,
    )


def extend_schedule(
    schedule: Schedule,
    up: DurationDistribution,
    down: DurationDistribution,
    new_horizon: int,
) -> Schedule:
    """Extend coverage to at least created_at + new_horizon; prefix-stable."""
    target = schedule.created_at + int(new_horizon)
    if target <= schedule.covered_until:
        return schedule
    rng = _generator_from_state(schedule.stream_state)
    extra, covered = _draw_blocks(up, down, schedule.covered_until, target, rng)
    return Schedule(
        created_at=schedule.created_at,
        toggles=np.concatenate([schedule.toggles, extra]),
        covered_until=covered,
        stream_state=rng.bit_generator.state,
    )


@dataclass
class PostRecord:
    """A stored post: identity, owner, content, schedule and deletion time."""

    post_id: str
    owner_token: str
    content: Optional[str]
    schedule: Schedule
    deleted_at: Optional[int] = None

    @property
    def created_at(self) -> int:
        return self.schedule.created_at

    def mark_deleted(self, t: int) -> None:
        if self.deleted_at is not None:
            raise ValueError(f"post {self.post_id} already deleted")
        if t <= self.created_at:
            raise ValueError("deletion time must be after creation")
        self.deleted_at = int(t)


def observable(post: PostRecord, t: int) -> bool:
    """Adversary-visible state: schedule parity, forced down after deletion."""
    if post.deleted_at is not None and t >= post.deleted_at:
        return False
    return post.schedule.state_at(t)


def _up_phase_start(schedule: Schedule, phase: int) -> int:
    """Start of the up phase preceding down phase index ``phase`` (odd)."""
    if phase >= 2:
        return int(schedule.toggles[phase - 2])
    return schedule.created_at


def observation_summary(post: PostRecord, t_c: int) -> Optional[ObservationSummary]:
    """The (last_up, down_elapsed) pair at t_c, or None while observed up.

    For deleted posts the summary reflects what the adversary saw: an up
    phase cut short by the deletion counts with its truncated length, and a
    deletion landing inside a scheduled down phase merges invisibly into it.
    """
    if t_c < post.created_at:
        raise ValueError("cannot observe a post before its creation")
    if observable(post, t_c):
        return None

    schedule = post.schedule
    deleted = post.deleted_at is not None and t_c >= post.deleted_at
    if deleted:
        t_del = post.deleted_at
        phase = schedule.phase_index(t_del)
        if phase % 2 == 1:
            # deletion during a scheduled down phase: observers saw nothing
            down_start = int(schedule.toggles[phase - 1])
            last_up = down_start - _up_phase_start(schedule, phase)
        else:
            up_start = (
                int(schedule.toggles[phase - 1]) if phase >= 1 else post.created_at
            )
            if t_del > up_start:
                # deletion cut the up phase short
                down_start = t_del
                last_up = t_del - up_start
            else:
                # deletion at the exact instant an up phase would begin: the
                # observed down period continues seamlessly from the previous
                # down toggle
                down_start = int(schedule.toggles[phase - 2])
                last_up = down_start - _up_phase_start(schedule, phase - 1)
    else:
        phase = schedule.phase_index(t_c)
        down_start = int(schedule.toggles[phase - 1])
        last_up = down_start - _up_phase_start(schedule, phase)

    down_elapsed = max(1, t_c - down_start)
    return ObservationSummary(
        last_up=last_up, down_elapsed=down_elapsed, as_of=t_c
    )
