"""Per-post visibility schedules.

A schedule is the alternating sequence of up/down phases for one post, held
as absolute toggle timestamps so that "is this post visible at t" is a
binary search rather than a walk.  The post is up on [created_at,
toggles[0]), down on [toggles[0], toggles[1]), and so on.  A schedule knows
nothing of deletion: the store forgets a deleted post, and the exact
adversary engine counts what a deleted post's observers see.  The store
keeps no ``Schedule``: it keeps a cursor per post and redraws blocks with
``toggle_batches`` as the cursor moves.  Full schedules serve the tests and
the store's ``record``.

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

``toggle_batches`` draws many posts at once; ``generate_schedule`` and
``extend_schedule`` are its one-post case.  Each block takes two steps.
First only its generator calls run: the reset, then ``standard_exponential``
into a row for a geometric law that numpy's ``geometric`` inverts (p < 1/3),
or the negative binomial's cluster draws; other laws call ``sample``.  Each
block's summed exponentials bound its length, so a post stops after exactly
the block it would stop after one block at a time.  Then one vectorised
pass finishes a batch's blocks into durations (the up durations, the
clusters added into the down rows, the interleave), each block's start and
its down total; a reader sums into toggles only the blocks it reads.  A
batch is bounded by its block count.  The draws are bit-identical to drawing
each block with ``sample``, so the block layout, and every store log, stays.
"""

from __future__ import annotations

import hmac
import math
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .distributions import DurationDistribution, Geometric, NegativeBinomial

_BLOCK = 256
_WORD = (1 << 64) - 1
_BATCH_BLOCKS = 64  # blocks per batch: bounds its buffers to ~0.5 MB
_SLACK = 1e-12  # relative float error allowed for in a block's length bounds
_ONES = np.ones(_BLOCK)

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
        # as lists, which the state setter reads in half the time of arrays
        state.update(state={"counter": [0] * 4, "key": [0, 0]}, buffer=[0] * 4)
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
    coverage passes the target: the one-post case of ``toggle_batches``.
    A schedule that already covers the target is returned as it is.
    """
    s = schedule
    blocks = len(s.toggles) // (2 * _BLOCK)
    post = (s.key, s.covered_until, s.created_at + int(new_horizon), blocks)
    # one post draws all its blocks into one batch
    (batch,) = toggle_batches(up, down, [post])
    if not len(batch.starts):
        return schedule
    return Schedule(s.created_at, np.concatenate([s.toggles, batch.toggles().ravel()]), s.key)


def first_toggle(up: DurationDistribution, key: int) -> int:
    """The first toggle of ``key``'s schedule: block 0's first up duration."""
    gen = _block_generator(key, 0)
    if isinstance(up, Geometric) and up.inverts_exponentials:
        return math.ceil(gen.standard_exponential() / -math.log1p(-up.p))  # as from_exponentials
    return int(up.sample(gen, size=_BLOCK)[0])


@dataclass(frozen=True)
class Batch:
    """The blocks a batch of posts drew: post first + i drew blocks
    bounds[i]:bounds[i + 1]; block k starts at starts[k], has durations steps[k]
    (up, down, ...; starts[k] added to the first) and down total downs[k]."""

    first: int
    bounds: list[int]
    steps: np.ndarray  # int64, one row of 2 * _BLOCK per block
    starts: list[int]
    downs: np.ndarray  # int64

    def toggles(self, rows=slice(None)) -> np.ndarray:
        """The toggles of block or blocks ``rows`` (default: all), a row each."""
        return np.add.accumulate(self.steps[rows], axis=-1)


def toggle_batches(
    up: DurationDistribution,
    down: DurationDistribution,
    posts: Iterable[tuple[int, int, int, int]],
) -> Iterator[Batch]:
    """Draw the next blocks of many posts, in batches of posts.

    Each post is (key, start, target, block): it continues from toggle time
    ``start`` with block ``block`` of ``key`` and draws whole blocks until
    its last toggle reaches ``target``, the blocks, and so the toggles, that
    ``extend_schedule`` appends one post at a time.  Yields a ``Batch`` per
    batch, in post order; a post whose start already reached its target
    draws no block.  A batch closes once it holds _BATCH_BLOCKS blocks.
    Posts are read one at a time, so they may come from a generator.
    """
    first, bounds = 0, None
    for i, (key, start, target, block) in enumerate(posts):
        if bounds is None:  # a new batch
            ups, downs = _steps(up, 2 * _BATCH_BLOCKS), _steps(down, 2 * _BATCH_BLOCKS)
            j, bounds, begins = 0, [0], []
        start, need, block = int(start), int(target) - int(start), int(block)
        head, lo, hi = j, 0.0, 0.0  # bounds on the blocks' summed length
        while lo < need:
            gen = _block_generator(key, block)
            up_lo, up_hi = ups.draw(gen, j)
            down_lo, down_hi = downs.draw(gen, j)
            j += 1
            block += 1
            lo += up_lo + down_lo
            hi += up_hi + down_hi
            if lo < need <= hi:  # too close to call: sum exactly
                lo = hi = ups.exact(head, j) + downs.exact(head, j)
        begins += [start] + [None] * (j - head - 1) if j > head else []  # see _finish
        bounds.append(j)
        if j >= _BATCH_BLOCKS:
            yield _finish(ups, downs, first, bounds, begins)
            first, bounds = i + 1, None
    if bounds is not None:
        yield _finish(ups, downs, first, bounds, begins)


def _finish(ups, downs, first, bounds, begins: list) -> Batch:
    """Block k starts at begins[k], or where block k - 1 ends if that is None."""
    steps = np.empty((bounds[-1], 2 * _BLOCK), dtype=np.int64)
    down_totals = downs.finish(steps[:, 1::2])
    starts, end = [], 0
    for begin, length in zip(begins, (ups.finish(steps[:, 0::2]) + down_totals).tolist()):
        starts.append(end if begin is None else begin)
        end = starts[-1] + length
    steps[:, 0] += np.array(starts, dtype=np.int64)
    return Batch(first, bounds, steps, starts, down_totals)


def _steps(law: DurationDistribution, rows: int):
    """One law's draws for a batch's blocks, split into generator calls per
    block and one finishing pass, which returns each block's total."""
    if isinstance(law, Geometric) and law.inverts_exponentials:
        return _Exponentials(law, rows)
    if isinstance(law, NegativeBinomial) and law.draws_clusters:
        return _Clusters(law)
    return _Samples(law, rows)


def _grow(buf: np.ndarray) -> np.ndarray:
    bigger = np.empty((2 * len(buf),) + buf.shape[1:], dtype=buf.dtype)
    bigger[: len(buf)] = buf
    return bigger


class _Exponentials:
    """A geometric law's blocks as rows of standard exponentials.  A row's
    sum S bounds its durations' sum: each is ceil(E / d) for d = -log1p(-p),
    so the block's sum lies in [S / d, S / d + 256)."""

    def __init__(self, law: Geometric, rows: int):
        self.law = law
        self.divisor = -math.log1p(-law.p)
        self.rows = np.empty((rows, _BLOCK))

    def draw(self, gen, j: int) -> tuple[float, float]:
        if j == len(self.rows):
            self.rows = _grow(self.rows)
        row = self.rows[j]
        gen.standard_exponential(out=row)
        x = float(row.dot(_ONES)) / self.divisor
        return x - x * _SLACK - 1.0, x + x * _SLACK + _BLOCK + 1.0

    def exact(self, head: int, j: int) -> int:
        return int(self.law.from_exponentials(self.rows[head:j].copy()).sum())

    def finish(self, out: np.ndarray) -> np.ndarray:
        self.law.from_exponentials(self.rows[: len(out)], out)
        return out.sum(axis=1)


class _Clusters:
    """A negative binomial's blocks as cluster draws, added into the down
    rows at the end; a block's length, 256 plus its clusters', is exact."""

    def __init__(self, law: NegativeBinomial):
        self.law = law
        self.rows: list[int] = []
        self.uniforms: list[float] = []
        self.lengths: list[int] = []
        self.sums: list[int] = []

    def draw(self, gen, j: int) -> tuple[int, int]:
        uniforms, lengths = self.law.draw_clusters(gen, _BLOCK)
        total = _BLOCK
        if len(lengths):
            lengths = lengths.tolist()
            self.rows += [j] * len(lengths)
            self.uniforms += uniforms.tolist()
            self.lengths += lengths
            total += sum(lengths)
        self.sums.append(total)
        return total, total

    def exact(self, head: int, j: int) -> int:
        return sum(self.sums[head:j])

    def finish(self, out: np.ndarray) -> np.ndarray:
        out[...] = 1
        if self.rows:
            self.law.add_clusters(
                out, np.array(self.rows), np.array(self.uniforms), np.array(self.lengths)
            )
        return np.array(self.sums, dtype=np.int64)


class _Samples:
    """Any other law: each block is one ``sample`` call, its length exact."""

    def __init__(self, law: DurationDistribution, rows: int):
        self.law = law
        self.rows = np.empty((rows, _BLOCK), dtype=np.int64)

    def draw(self, gen, j: int) -> tuple[int, int]:
        if j == len(self.rows):
            self.rows = _grow(self.rows)
        row = self.rows[j]
        row[...] = self.law.sample(gen, size=_BLOCK)
        total = int(row.sum())
        return total, total

    def exact(self, head: int, j: int) -> int:
        return int(self.rows[head:j].sum())

    def finish(self, out: np.ndarray) -> np.ndarray:
        out[...] = self.rows[: len(out)]
        return self.rows[: len(out)].sum(axis=1)


@dataclass
class PostRecord:
    """A stored post: identity, owner, content and schedule."""

    post_id: str
    owner_token: str
    content: Optional[str]
    schedule: Schedule

    @property
    def created_at(self) -> int:
        return self.schedule.created_at
