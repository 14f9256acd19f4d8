"""Per-post visibility schedules.

A schedule is the precomputed alternating sequence of up/down phases for one
post, stored as absolute toggle timestamps so that "is this post visible at
t" is a binary search rather than a walk (the store's hot read path).  The
post is up on [created_at, toggles[0]), down on [toggles[0], toggles[1]),
and so on; a deletion forces the observable state down from deleted_at
onward regardless of the schedule.

Durations are drawn in blocks: block b is 256 up then 256 down draws from
counter-based Philox (Salmon et al., SC 2011) keyed by the post's
``schedule_key``, HMAC-SHA256(secret, post id)[:16], from counter b << 192.
The block index sits in the top counter word, so blocks never overlap, and
block b is a pure function of (secret, post id, b).  A schedule is thus
(created_at, toggles, key), and extension draws from the block after the
last one it holds: one step or many yield the same toggles, and existing
toggles never change, so cached reads of these immutable snapshots stay valid.
The layout has changed twice: with the keyed blocks, and again when the
negative binomial began drawing its blocks as Poisson clusters (see
``lethe.distributions``).  A store log written before either change replays
with different schedules.
"""

from __future__ import annotations

import hmac
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import DurationDistribution
from .privacy import ObservationSummary

_BLOCK = 256
_WORD = (1 << 64) - 1

DEFAULT_HORIZON = 365 * 86400


def schedule_key(secret: bytes, post_id: object) -> int:
    """A post's 128-bit Philox key: HMAC-SHA256(secret, str(post_id))[:16]."""
    digest = hmac.digest(secret, str(post_id).encode("utf-8"), "sha256")
    return int.from_bytes(digest[:16], "little")


_local = threading.local()


def _block_generator(key: int, block: int) -> np.random.Generator:
    """This thread's generator, set to the start of ``block`` under ``key``.
    A new Philox seeds a throwaway SeedSequence from OS entropy, several times
    the cost of assigning a prebuilt state, so each thread reuses one."""
    try:
        gen, state = _local.gen, _local.state
    except AttributeError:
        gen = _local.gen = np.random.Generator(np.random.Philox(0))
        state = _local.state = gen.bit_generator.state  # counter 0, buffer empty
    words = state["state"]
    words["key"][0] = key & _WORD
    words["key"][1] = key >> 64
    words["counter"][3] = block  # counter block << 192; lower words stay 0
    gen.bit_generator.state = state
    return gen


@dataclass(frozen=True)
class Schedule:
    """Alternating up/down toggle timestamps for one post, from created_at."""

    created_at: int
    toggles: np.ndarray  # int64 absolute seconds, strictly increasing, whole blocks
    key: int  # 128-bit Philox key (see schedule_key)

    @property
    def covered_until(self) -> int:
        return int(self.toggles[-1]) if len(self.toggles) else self.created_at

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


def generate_schedule(
    up: DurationDistribution,
    down: DurationDistribution,
    t0: int,
    horizon: int,
    key: int,
) -> Schedule:
    """Precompute toggles covering at least [t0, t0 + horizon], up phase first."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 second, got {horizon}")
    empty = Schedule(int(t0), np.empty(0, dtype=np.int64), key)
    return extend_schedule(empty, up, down, int(horizon))


def extend_schedule(
    schedule: Schedule,
    up: DurationDistribution,
    down: DurationDistribution,
    new_horizon: int,
) -> Schedule:
    """Extend coverage to at least created_at + new_horizon; prefix-stable.

    Draws whole blocks, from the one after the last in ``toggles``, until
    coverage passes the target.  Each block interleaves its up and down
    durations and turns them into absolute toggles with one running sum
    from the previous block's end.
    """
    target = schedule.created_at + int(new_horizon)
    t = schedule.covered_until
    if target <= t:
        return schedule
    blocks = [schedule.toggles]
    block = len(schedule.toggles) // (2 * _BLOCK)
    while t < target:
        gen = _block_generator(schedule.key, block)
        steps = np.empty(2 * _BLOCK, dtype=np.int64)
        steps[0::2] = up.sample(gen, size=_BLOCK)
        steps[1::2] = down.sample(gen, size=_BLOCK)
        steps[0] += t
        np.add.accumulate(steps, out=steps)
        t = int(steps[-1])
        blocks.append(steps)
        block += 1
    return Schedule(schedule.created_at, np.concatenate(blocks), schedule.key)


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
