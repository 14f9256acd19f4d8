"""Snapshot-adversary simulation over a scaled-down post population.

The platform starts with a stock of posts; every day a batch is created and a
batch of uniformly chosen victims is deleted.  Every post toggles through
up/down phases drawn from the tuned mechanism.  The adversary watches
continuously and flags any post whose continuous down time reaches his
decision threshold theta.  Two bookkeeping styles:

* flag-once: a flagged post is investigated once and dropped from
  consideration forever.  Flagging a post that later gets deleted turns that
  deletion into a false negative.
* flag-multi: an investigated post goes straight back into the pool, so a
  post that stays down keeps getting re-flagged every theta seconds, and
  every deletion is eventually caught (recall is exactly 1).

Two engines produce the counts: an exact event-level engine that draws every
phase of every post (small populations), and an accelerated engine that
replaces per-phase drawing with the renewal approximation, which reaches the
hundred-million-post configurations on one machine.  Its unit of stream and
thread work is a chunk of a million posts; it draws a chunk's population
(every post's deletion day) once, in blocks of 2**14 posts of one stream, and
shares it between all mechanisms of a run, such as the fft_table cells.
Exposure is a whole number of days, so per mechanism a chunk's flag counts are
one Poisson draw at the summed expected rate, and the survivors' first flags
one binomial per exposure day; only deleted posts are drawn one by one, in
blocks of about 2**15 of them that continue the stream (for the README's
fft-table run, a chunk's population and its 85% / 30 d cell's counts trace
2.8 MiB per thread, not 8 MiB as whole-chunk arrays).  Each draw has the law
of the per-post draws it stands for, and every mechanism continues the chunk's
stream from the same state, so cells share common random numbers.  What does
not depend on the mechanism is computed once per chunk and shared as arrays:
survivors and all posts per exposure day, each deleted post's exposure and its
seconds from deletion to the horizon; per mechanism only deleted posts landing
mid-down (a share of 1 - availability) get an age, looked up in sorted order.
Each mechanism's tables come from array ccdf calls over its levels and tail
grid.  The first-flag law degenerates at both ends: a threshold the down law
cannot reach (q = ccdf(theta - 1) = 0) never flags, and with q = 1 (every
down phase reaches it, as at a 1 s threshold) the first flag lands exactly
mu_up + theta after creation.  The exact engine draws post i's phases with the
store's schedule generator (schedule.py): block b of its schedule comes from
Philox keyed by HMAC-SHA256(secret, i) at counter b << 192, where the secret
is derived from the seed.  It draws its posts in batches bounded by block
count (``toggle_batches``), with the toggles of drawing them one at a time,
and counts flags vectorised over the blocks that can flag (``_count_flags``).
Every chunk draws from its own substream.  So both engines are deterministic
given (seed, config), with the same counts for any number of workers (exact:
processes, accelerated: threads).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._rng import substream
from .distributions import DurationDistribution
from .schedule import Batch, schedule_key, toggle_batches
from .tuning import TuningSpec, build_mechanism

DAY = 86400

_EXACT_POST_LIMIT = 300_000
_CHUNK = 1_000_000  # posts per substream and thread task
_POPULATION_BLOCK = 1 << 14  # posts per population draw: bounds memory only
_COUNT_BLOCK = 1 << 15  # deleted posts per block of per-post draws: fewer, larger numpy calls
_LEVEL_CHUNK = 1 << 16  # flag levels per ccdf_array call
_ORACLE_BLOCK = 1 << 18  # levels x creation days per oracle block
_FLAG_ROWS = 1 << 6  # blocks read per count: fewer, larger numpy calls

FLAG_ONCE = "flag-once"
FLAG_MULTI = "flag-multi"
SCENARIOS = (FLAG_ONCE, FLAG_MULTI)
AVAILABILITY_GRID = (0.85, 0.90, 0.95)  # the paper's grid: availability targets
THETA_DAYS_GRID = (30.0, 60.0, 90.0, 120.0, 150.0, 180.0)  # x decision thresholds


@dataclass(frozen=True)
class SimulationConfig:
    """Population, mechanism and adversary parameters for one run.

    ``scale_factor`` is the simulated platform's size relative to the real
    one; reported counts are divided by it to get full-platform numbers.
    ``thresholds_to_evaluate`` are adversary thresholds in seconds, all
    evaluated against the single mechanism tuned at ``theta_star_for_tuning``.
    ``threads`` is either engine's worker count (default: the usable CPUs):
    processes for the exact engine, threads for the accelerated one.

    A config that cannot run is refused when built.  Each day deletes D
    uniform victims among the N0 + (d - 1)(C - D) posts alive before day d,
    then creates C, so that stock must reach D on day 1 (C >= D) and on the
    last day (C < D).  The exact engine takes at most 300,000 posts in all.
    """

    initial_posts: int
    creations_per_day: int
    deletions_per_day: int
    horizon_days: int
    availability_target: float
    mean_down: float
    theta_star_for_tuning: float
    thresholds_to_evaluate: tuple[float, ...]
    scenario: str = FLAG_MULTI
    scale_factor: float = 1.0
    seed: int = 0
    engine: str = "accelerated"
    threads: int | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.engine not in ("exact", "accelerated"):
            raise ValueError("engine must be 'exact' or 'accelerated'")
        n0, c, d = self.initial_posts, self.creations_per_day, self.deletions_per_day
        if min(n0, c, d, self.horizon_days) < 1:
            raise ValueError("initial_posts, the daily rates and horizon_days must be positive")
        if n0 + min(0, c - d) * (self.horizon_days - 1) < d:
            raise ValueError("deletion rate would drain the platform")
        if self.engine == "exact" and self.total_posts > _EXACT_POST_LIMIT:
            raise ValueError(
                f"exact engine supports up to {_EXACT_POST_LIMIT} posts "
                f"({self.total_posts} requested); use the accelerated engine"
            )
        if not self.thresholds_to_evaluate:
            raise ValueError("need at least one decision threshold")
        for theta in self.thresholds_to_evaluate:
            if not theta >= 1:  # thresholds are truncated to whole seconds
                raise ValueError(f"threshold {theta} s must be at least 1 second")
            if theta >= self.horizon_days * DAY:
                raise ValueError(
                    f"threshold {theta} s is not below the horizon "
                    f"({self.horizon_days} days)"
                )
        if not 0.0 < self.scale_factor <= 1.0:
            raise ValueError("scale_factor must be in (0, 1]")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be at least 1 (or None for every usable CPU)")

    @property
    def horizon_seconds(self) -> int:
        return self.horizon_days * DAY

    @property
    def total_posts(self) -> int:
        return self.initial_posts + self.creations_per_day * self.horizon_days

    @property
    def workers(self) -> int:
        usable = getattr(os, "sched_getaffinity", None)  # narrowed by taskset or a cpuset
        return self.threads or (len(usable(0)) if usable else os.cpu_count() or 1)

    def tuning_spec(self) -> TuningSpec:
        return TuningSpec(
            availability_target=self.availability_target,
            mean_down=self.mean_down,
            decision_threshold_estimate=self.theta_star_for_tuning,
        )


@dataclass(frozen=True)
class ThresholdMetrics:
    """Adversary outcome at one decision threshold."""

    threshold_seconds: float
    tp: int
    fp: int
    fn: int
    precision: float | None
    recall: float | None
    fp_full_scale: float
    tp_closed_form: float
    precision_closed_form: float | None


@dataclass(frozen=True)
class AdversaryReport:
    scenario: str
    engine: str
    seed: int
    per_threshold: tuple[ThresholdMetrics, ...]


# Rows of a counts array, whose columns are the thresholds in ascending order:
# both scenarios' raw counters from one pass.
_FP_MULTI, _TP_MULTI, _FP_ONCE, _FN_ONCE, _TP_ONCE = range(5)


def _thetas(cfg: SimulationConfig) -> np.ndarray:
    return np.asarray(sorted(int(t) for t in cfg.thresholds_to_evaluate))


# ---------------------------------------------------------------------------
# population process


def _exact_population(cfg: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Literal day-batched births and uniform-victim deaths.

    Returns (created_day, deleted_day) per post id; deleted_day is -1 for
    survivors.  Deletions are applied before the day's creations, at day
    granularity, matching the batch-notification model.
    """
    rng = substream(cfg.seed, "population")
    n0, c, total = cfg.initial_posts, cfg.creations_per_day, cfg.total_posts
    created = np.repeat(np.arange(cfg.horizon_days + 1), [n0] + [c] * cfg.horizon_days)
    deleted = np.full(total, -1, dtype=np.int64)
    alive, n_alive = np.arange(total), n0  # alive[:n_alive] are the live posts
    for day in range(1, cfg.horizon_days + 1):
        picks = rng.choice(n_alive, size=cfg.deletions_per_day, replace=False)
        deleted[alive[picks]] = day
        for i in np.sort(picks)[::-1]:
            n_alive -= 1
            alive[i] = alive[n_alive]
        alive[n_alive : n_alive + c] = np.arange(n0 + (day - 1) * c, n0 + day * c)
        n_alive += c
    return created, deleted


def _hazard_deletion_days(
    cfg: SimulationConfig, created_day: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Deletion day per post under the continuum uniform-victim hazard.

    The daily uniform choice of deletions_per_day victims among alive posts
    is, in the large-population limit, an inhomogeneous hazard
    D / alive(t) with alive(t) = N0 + (C - D) t; inverting the cumulative
    hazard against a unit exponential gives each post's deletion time.
    Returns -1 for posts surviving the horizon.
    """
    n0 = float(cfg.initial_posts)
    growth = float(cfg.creations_per_day - cfg.deletions_per_day)
    rate = float(cfg.deletions_per_day)
    e = rng.standard_exponential(len(created_day))  # then in place, in the operation order of
    if growth != 0.0:  # ((n0 + growth * created_day) * exp(growth * e / rate) - n0) / growth
        t_del = np.exp(np.divide(np.multiply(e, growth, out=e), rate, out=e), out=e)
        t_del *= np.multiply(growth, created_day) + n0
        t_del = np.divide(np.subtract(t_del, n0, out=t_del), growth, out=t_del)
    else:  # created_day + e * n0 / rate
        t_del = np.add(np.divide(np.multiply(e, n0, out=e), rate, out=e), created_day, out=e)
    np.minimum(t_del, float(cfg.horizon_days + 1), out=t_del)
    day = np.ceil(t_del, out=t_del).astype(np.int64)
    np.maximum(day, created_day + 1, out=day)
    day[day > cfg.horizon_days] = -1
    return day


# ---------------------------------------------------------------------------
# exact engine


def _count_flags(counts, thetas, batches: Iterable[Batch], t_del, ends) -> None:
    """Accumulate flag events for the posts drawn in ``batches``: post i's
    toggles are offsets from its creation, t_del[i] is its deletion offset
    (-1 if it survives) and ends[i] the horizon's.

    A surviving post's down phases are observed up to the horizon.  A
    deleted post's phases completed while it was alive count in full, and
    then comes the terminal observed down period: it starts with the down
    phase the deletion lands in (or ends exactly at), else at the deletion.
    Only phases that reach thetas[0] in full can flag, so the blocks read are
    those that can hold one and each deleted post's last, with its deletion.
    """
    read, lo = [], 0
    for batch in batches:
        hi = batch.first + len(batch.bounds) - 1
        last = np.asarray(batch.bounds[1:])[t_del[batch.first : hi] >= 0] - 1
        rows = np.union1d(batch.can_hold(thetas[0]), last)
        owners = np.searchsorted(batch.bounds, rows, side="right") - 1 + (batch.first - lo)
        read.append((batch.toggles(rows), owners))
        if hi == len(t_del) or sum(len(o) for _, o in read) >= _FLAG_ROWS:
            toggles, owners = (np.concatenate(x) for x in zip(*read))
            _count_read(counts, thetas, toggles, owners, t_del[lo:hi], ends[lo:hi])
            read, lo = [], hi


def _count_read(counts, thetas, toggles, owners, t_del, ends) -> None:
    """``_count_flags`` over the read blocks' toggles, row r's post owners[r]."""
    gone = t_del >= 0
    starts, stops = toggles[:, 0::2], toggles[:, 1::2]  # the down phases read
    long = stops - starts >= thetas[0]  # shorter phases flag nothing
    row, col = np.divmod(np.flatnonzero(long), long.shape[1])  # 2-D np.nonzero is ~10x slower
    post = owners[row]
    starts_l, stops_l, cut = starts[row, col], stops[row, col], np.where(gone, t_del, ends)[post]
    lens = np.minimum(stops_l, cut) - starts_l
    # a deletion's phase is the one with start <= t_del <= stop
    lens[gone[post] & (starts_l <= cut) & (cut <= stops_l)] = 0
    post, lens = post[lens >= thetas[0]], lens[lens >= thetas[0]]
    counts[_FP_MULTI] += (lens[None, :] // thetas[:, None]).sum(axis=1)
    longest = np.zeros(len(t_del), dtype=np.int64)
    np.maximum.at(longest, post, lens)
    flagged = longest[:, None] >= thetas  # a completed phase flagged the post
    at = np.searchsorted(owners, np.flatnonzero(gone), side="right") - 1  # its last block
    t_del, ends = t_del[gone, None], ends[gone, None]
    starts, stops = starts[at], stops[at]
    k = np.count_nonzero(starts <= t_del, axis=1) - 1  # the last phase begun by t_del
    begun = np.arange(len(at)), np.maximum(k, 0)
    inside = (k >= 0) & (stops[begun] >= t_del[:, 0])
    term_start = np.where(inside, starts[begun], t_del[:, 0])[:, None]

    counts[_FP_ONCE] += flagged[~gone].sum(axis=0)
    pre = np.maximum(t_del - term_start - 1, 0) // thetas  # flags before t_del
    counts[_FP_MULTI] += pre.sum(axis=0)
    caught = term_start + (pre + 1) * thetas <= ends  # first flag after t_del
    counts[_TP_MULTI] += caught.sum(axis=0)
    preflagged = (pre >= 1) | flagged[gone]
    counts[_FP_ONCE] += preflagged.sum(axis=0)
    counts[_FN_ONCE] += preflagged.sum(axis=0)
    counts[_TP_ONCE] += (~preflagged & caught).sum(axis=0)


def _exact_posts(
    cfg: SimulationConfig,
    up: DurationDistribution,
    down: DurationDistribution,
    created: np.ndarray,
    deleted: np.ndarray,
    first: int,
    step: int,
) -> np.ndarray:
    """Counts summed over posts first, first + step, ... of the population."""
    thetas = _thetas(cfg)
    secret = substream(cfg.seed, "schedule").bytes(32)
    uids = np.arange(first, cfg.total_posts, step)
    t0 = created[uids] * DAY
    ends = cfg.horizon_seconds - t0
    t_del = np.where(deleted[uids] >= 0, deleted[uids] * DAY - t0, -1)
    spans = np.where(t_del >= 0, t_del, ends)
    drawn = spans > 0
    uids, ends, t_del, spans = uids[drawn], ends[drawn], t_del[drawn], spans[drawn]
    # the store's schedule of post uid, offset to its creation
    posts = (
        (schedule_key(secret, uid), 0, span, 0) for uid, span in zip(uids.tolist(), spans.tolist())
    )
    counts = np.zeros((5, len(thetas)), dtype=np.int64)
    _count_flags(counts, thetas, toggle_batches(up, down, posts), t_del, ends)
    return counts


def _run_exact(
    cfg: SimulationConfig,
    up: DurationDistribution,
    down: DurationDistribution,
) -> np.ndarray:
    created, deleted = _exact_population(cfg)
    task = functools.partial(_exact_posts, cfg, up, down, created, deleted)
    workers = cfg.workers
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return task(0, 1)
    # Strides, not halves, because posts are ordered by creation day.  Forked
    # workers inherit numpy and scipy, where spawn would import them again.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        return sum(pool.map(task, range(workers), [workers] * workers))


# ---------------------------------------------------------------------------
# accelerated engine


def _level_ccdfs(down: DurationDistribution, theta: int, horizon: int) -> np.ndarray:
    """P(down phase >= m * theta) for m = 1 .. horizon // theta, through the
    first below 1e-18, in chunks of levels doubling up to _LEVEL_CHUNK."""
    m_max = max(1, horizon // theta)
    parts, first, size = [], 1, 64
    while first <= m_max:
        qs = down.ccdf_array(np.arange(first, min(first + size, m_max + 1)) * theta - 1)
        (tiny,) = np.nonzero(qs < 1e-18)
        parts.append(qs[: tiny[0] + 1] if len(tiny) else qs)
        if len(tiny):
            break
        first, size = first + size, min(2 * size, _LEVEL_CHUNK)
    return np.concatenate(parts)


def _down_tail_grid(down: DurationDistribution, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced grid of k and ccdf(k) spanning the distribution's tail."""
    ks = np.unique(
        np.concatenate(
            [np.arange(0, 64), np.round(np.geomspace(64, max(span, 128), 512))]
        ).astype(np.int64)
    )
    return ks.astype(np.float64), down.ccdf_array(ks)


def _first_passage_mean(
    up: DurationDistribution,
    down: DurationDistribution,
    theta: int,
    q: float,
    tail_ks: np.ndarray,
    tail_cc: np.ndarray,
) -> float:
    """Expected time until the adversary's first flag of a never-deleted post,
    where q = ccdf(theta - 1) is the chance that a down phase flags.

    Cycles that do not flag have a conditionally *shorter* down phase (the
    heavy tail is exactly what flags), so the naive q / mean_cycle rate
    understates the flag hazard.  The first flag lands after a
    Geometric(q) number of cycles:

        E[T*] = (1 - q)/q * (mu_up + E[D | D < theta]) + mu_up + theta

    With q = 0 no down phase ever flags (inf); with q = 1 the first one does.
    """
    if q == 0.0:
        return math.inf
    if q == 1.0:
        return up.mean + theta
    mask = tail_ks >= theta
    tail_integral = float(np.trapezoid(tail_cc[mask], tail_ks[mask]))
    mean_given_flag = theta * q + tail_integral  # E[D 1{D >= theta}]
    mean_down_cond = (down.mean - mean_given_flag) / (1.0 - q)
    return (1.0 - q) / q * (up.mean + mean_down_cond) + up.mean + theta


@dataclass(frozen=True)
class _RenewalModel:
    """Per-mechanism tables of the accelerated engine: per-post quantities by
    threshold (row) and exposure day (creation to deletion or horizon)."""

    thetas: np.ndarray
    flag_mean: np.ndarray  # expected flag-multi events per post
    first_flag: np.ndarray  # probability of a first flag (flag-once)
    age_cdf: np.ndarray  # stationary down-phase age inverse-transform table
    age_values: np.ndarray
    down_fraction: float  # probability a deletion lands inside a down phase


def _build_renewal_model(
    cfg: SimulationConfig,
    up: DurationDistribution,
    down: DurationDistribution,
) -> _RenewalModel:
    thetas = _thetas(cfg)
    tail_ks, tail_cc = _down_tail_grid(down, 4 * cfg.horizon_seconds)
    mean_cycle = up.mean + down.mean
    # A deletion landing inside a down phase merges invisibly into it; how far
    # that phase had already progressed follows the stationary age density
    # ccdf(a) / mean_down, tabulated here as a cdf for inverse transforms.
    age = np.cumsum(0.5 * (tail_cc[1:] + tail_cc[:-1]) * np.diff(tail_ks))
    exposure = np.arange(cfg.horizon_days + 1, dtype=np.int64) * DAY
    flag_mean = np.empty((len(thetas), len(exposure)))
    first_flag = np.empty_like(flag_mean)
    for j, theta in enumerate(thetas):
        # sum_m q_m * max(0, exposure - m*theta) / mean_cycle, by prefix sums
        # over the levels m (up to horizon // theta of them)
        qs = _level_ccdfs(down, int(theta), cfg.horizon_seconds)
        m_max = (exposure // theta).clip(0, len(qs))
        q1 = np.concatenate([[0.0], np.cumsum(qs)])
        qm = np.concatenate([[0.0], np.cumsum(qs * np.arange(1, len(qs) + 1))])
        flag_mean[j] = np.maximum(exposure * q1[m_max] - theta * qm[m_max], 0.0) / mean_cycle
        # time to first flag approximated as shift + Exponential(scale); an
        # infinite scale never flags, a zero one flags at the shift
        shift = theta + up.mean
        scale = _first_passage_mean(up, down, int(theta), qs[0], tail_ks, tail_cc) - shift
        excess = np.maximum(exposure - shift, 0.0)
        first_flag[j] = -np.expm1(-excess / scale) if scale > 0.0 else excess > 0.0
    return _RenewalModel(
        thetas=thetas,
        flag_mean=flag_mean,
        first_flag=first_flag,
        age_cdf=np.concatenate([[0.0], age / age[-1]]),
        age_values=tail_ks,
        down_fraction=down.mean / mean_cycle,
    )


def _chunk_population(cfg: SimulationConfig, index: int, lo: int, hi: int) -> tuple:
    """One chunk's posts, reduced to never-deleted and all posts per exposure
    day, blocks of _COUNT_BLOCK or more deleted posts with their exposure and
    seconds to the horizon, and the stream's state; blocks change no draw."""
    rng = substream(cfg.seed, "chunk", index)
    per_day, days = cfg.horizon_days + 1, np.min_scalar_type(cfg.horizon_days)
    seconds = np.min_scalar_type(cfg.horizon_seconds)
    end = hi - cfg.initial_posts  # virtual post ordering: initial posts, then each day's batch
    edges = np.r_[0, cfg.initial_posts + cfg.creations_per_day * np.arange(per_day)]
    survivors, exposed, blocks, parts = np.diff(edges.clip(lo, hi)), 0, [], []  # posts per day
    for start in range(lo - cfg.initial_posts, end, _POPULATION_BLOCK):
        created = np.arange(start, min(start + _POPULATION_BLOCK, end), dtype=np.int64)
        created //= cfg.creations_per_day
        created += 1
        np.maximum(created, 0, out=created)
        deleted = _hazard_deletion_days(cfg, created, rng)
        gone = np.flatnonzero(deleted >= 0)
        born, deleted = created[gone], deleted[gone]
        survivors -= np.bincount(born, minlength=per_day)
        exposure = (deleted - born).astype(days)
        exposed += np.bincount(exposure, minlength=per_day)
        parts.append((exposure, (cfg.horizon_seconds - deleted * DAY).astype(seconds)))
        if sum(len(e) for e, _ in parts) >= _COUNT_BLOCK or start + _POPULATION_BLOCK >= end:
            blocks.append(tuple(np.concatenate(a) for a in zip(*parts)))
            parts = []
    return survivors[::-1], survivors[::-1] + exposed, blocks, rng.bit_generator.state


def _chunk_counts(model: _RenewalModel, population: tuple) -> np.ndarray:
    """Counts for one mechanism over one chunk's population.

    Per-post Poisson flag counts sum to one Poisson, and the survivors'
    first-flag Bernoullis to one binomial per exposure day.  Deleted posts
    keep per-post draws, because being caught depends on each one's age.  They
    draw in blocks, in whole-chunk order: mid-down, ages, then flags by theta.
    """
    survivors, exposed, blocks, stream = population
    # every mechanism continues the same stream: common random numbers
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = stream
    fp_multi = rng.poisson(model.flag_mean @ exposed)
    survivors_flagged = rng.binomial(survivors, model.first_flag).sum(axis=1)

    # Terminal crossing: the first flag theta after the deletion, or sooner
    # when it lands mid-down (prob. mean_down / mean_cycle), merging into an
    # outage that started `age` whole seconds earlier.
    mid_down = [np.flatnonzero(rng.random(len(e)) < model.down_fraction) for e, _ in blocks]
    ages = _sorted_interp(rng.random(sum(map(len, mid_down))), model.age_cdf, model.age_values)
    ages = np.split(ages.astype(np.int64), np.cumsum([len(mid) for mid in mid_down[:-1]]))
    u = np.empty(max(len(e) for e, _ in blocks))  # after the ages, one array each: lower RSS
    chance, hit, flagged = np.empty_like(u), np.empty(len(u), bool), np.empty(len(u), bool)
    caught, fn_once, tp_once = np.zeros((3, len(model.thetas)), dtype=np.int64)
    for j, theta in enumerate(model.thetas):
        for (exposure, slack), mid, age in zip(blocks, mid_down, ages):
            h, f, p = hit[: len(slack)], flagged[: len(slack)], chance[: len(slack)]
            np.less_equal(theta, slack, out=h)
            h[mid] = theta - age % theta <= slack[mid]
            model.first_flag[j].take(exposure, out=p, mode="clip")  # in range: skips checks
            np.less(rng.random(out=u[: len(p)]), p, out=f)
            caught[j] += np.count_nonzero(h)
            fn_once[j] += np.count_nonzero(f)
            tp_once[j] += np.count_nonzero(np.greater(h, f, out=h))  # caught, never flagged
    return np.array([fp_multi, caught, survivors_flagged + fn_once, fn_once, tp_once])


def _sorted_interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x, xp, fp) for x in [0, 1], bit for bit, written to x.  No value depends
    on order, and searches start at the last answer: sorted (radix, 15 bits) is 3x faster."""
    order = np.argsort((x * 2**15).astype(np.uint16), kind="stable")
    x[order] = np.interp(x[order], xp, fp)
    return x


def _run_accelerated(
    runs: Sequence[tuple[SimulationConfig, tuple[DurationDistribution, DurationDistribution]]],
) -> list[np.ndarray]:
    """Counts per (cfg, mechanism) run.  The runs differ only in mechanism
    and thresholds, so each chunk's population is drawn once for all."""
    cfg = runs[0][0]
    models = [_build_renewal_model(c, up, down) for c, (up, down) in runs]
    total = cfg.total_posts
    chunks = [
        (index, lo, min(lo + _CHUNK, total))
        for index, lo in enumerate(range(0, total, _CHUNK))
    ]

    def work(chunk: tuple[int, int, int]) -> list[np.ndarray]:
        population = _chunk_population(cfg, *chunk)
        return [_chunk_counts(model, population) for model in models]

    with ThreadPoolExecutor(max_workers=min(cfg.workers, len(chunks))) as pool:
        parts = list(pool.map(work, chunks))
    return [sum(per_run) for per_run in zip(*parts)]


# ---------------------------------------------------------------------------
# closed forms


def true_positive_closed_form(cfg: SimulationConfig, theta_seconds: float) -> float:
    """Deletions caught by horizon end: daily deletions x (horizon - theta)."""
    theta_days = theta_seconds / DAY
    if theta_days >= cfg.horizon_days:
        return 0.0
    return cfg.deletions_per_day * (cfg.horizon_days - theta_days)


def _survival_integral(
    cfg: SimulationConfig, s_days: np.ndarray, from_days: np.ndarray
) -> np.ndarray:
    """integral_{from}^{horizon} S(t | created at s) dt, in days (vectorized).

    S is the continuum survival of the uniform-victim deletion process,
    ((N0 + g s) / (N0 + g t))^(D/g) for growth g = C - D.  It overwrites
    ``from_days`` (float), so unless C = D or C = 2D an oracle block holds one array.
    """
    n0 = float(cfg.initial_posts)
    growth = float(cfg.creations_per_day - cfg.deletions_per_day)
    rate = float(cfg.deletions_per_day)
    horizon = float(cfg.horizon_days)
    lo = np.clip(from_days, s_days, horizon, out=from_days)
    if growth == 0.0:
        tau = n0 / rate
        return tau * (
            np.exp(-(lo - s_days) / tau) - np.exp(-(horizon - s_days) / tau)
        )
    kappa = rate / growth
    a_s = n0 + growth * s_days
    a_lo = np.add(np.multiply(lo, growth, out=lo), n0, out=lo)  # n0 + growth * lo
    a_hi = n0 + growth * horizon
    if abs(kappa - 1.0) < 1e-12:
        return (a_s / growth) * np.log(a_hi / a_lo)
    a_lo **= 1.0 - kappa  # coeff * (a_hi ** (1 - kappa) - a_lo ** (1 - kappa))
    a_lo = np.subtract(a_hi ** (1.0 - kappa), a_lo, out=a_lo)
    return np.multiply(a_lo, a_s**kappa / (growth * (1.0 - kappa)), out=a_lo)


def analytic_expected_fp(
    cfg: SimulationConfig,
    theta_seconds: float,
    mechanism: tuple[DurationDistribution, DurationDistribution] | None = None,
) -> float:
    """Renewal-theory expectation of flag-multi false positives.

    Sums, over every creation cohort and every flag level m (a post still
    down m*theta after the phase start is flagged for the m-th time),
    the expected number of phase starts early enough for the m-th crossing
    to land inside both the post's lifetime and the horizon:

        E[FP] = sum_s count_s sum_m q_m / mean_cycle *
                E[(min(t_del, horizon) - t0 - m theta)^+]
    """
    up, down = mechanism if mechanism is not None else build_mechanism(cfg.tuning_spec())
    mean_cycle = up.mean + down.mean
    theta = int(theta_seconds)
    qs = _level_ccdfs(down, theta, cfg.horizon_seconds)
    s_days = np.arange(cfg.horizon_days + 1, dtype=np.float64)
    cohort = np.full(cfg.horizon_days + 1, float(cfg.creations_per_day))
    cohort[0] = cfg.initial_posts
    block = max(1, _ORACLE_BLOCK // len(s_days))  # levels per block
    total = 0.0
    for first in range(0, len(qs), block):
        q = qs[first : first + block]
        offset_days = np.arange(first + 1, first + 1 + len(q))[:, None] * theta / DAY
        expected_days = _survival_integral(cfg, s_days, s_days + offset_days)
        expected_days *= cohort
        total += float(q @ expected_days.sum(axis=1))
    return total * DAY / mean_cycle


# ---------------------------------------------------------------------------
# public entry points


def run_simulation(
    cfg: SimulationConfig,
    mechanism: tuple[DurationDistribution, DurationDistribution] | None = None,
) -> AdversaryReport:
    """Simulate the adversary and report per-threshold precision/recall."""
    return run_both_scenarios(cfg, mechanism)[cfg.scenario]


def run_both_scenarios(
    cfg: SimulationConfig,
    mechanism: tuple[DurationDistribution, DurationDistribution] | None = None,
) -> dict[str, AdversaryReport]:
    """One simulation pass, reported under both flagging scenarios."""
    mechanism = mechanism if mechanism is not None else build_mechanism(cfg.tuning_spec())
    (counts,) = _simulate([(cfg, mechanism)])
    return {
        scenario: _report_from_counts(cfg, counts, scenario)
        for scenario in SCENARIOS
    }


def _simulate(
    runs: Sequence[tuple[SimulationConfig, tuple[DurationDistribution, DurationDistribution]]],
) -> list[np.ndarray]:
    """Counts per (cfg, mechanism) run, on the first run's engine."""
    if runs[0][0].engine == "exact":
        return [_run_exact(cfg, up, down) for cfg, (up, down) in runs]
    return _run_accelerated(runs)


def _report_from_counts(
    cfg: SimulationConfig, counts: np.ndarray, scenario: str
) -> AdversaryReport:
    metrics = []
    for j, theta in enumerate(_thetas(cfg)):
        if scenario == FLAG_MULTI:
            tp, fp, fn = counts[_TP_MULTI, j], counts[_FP_MULTI, j], 0
        else:
            tp, fp, fn = counts[_TP_ONCE, j], counts[_FP_ONCE, j], counts[_FN_ONCE, j]
        tp, fp, fn = int(tp), int(fp), int(fn)
        tp_cf = true_positive_closed_form(cfg, theta)
        metrics.append(
            ThresholdMetrics(
                threshold_seconds=float(theta),
                tp=tp,
                fp=fp,
                fn=fn,
                precision=tp / (tp + fp) if tp + fp > 0 else None,
                recall=tp / (tp + fn) if tp + fn > 0 else None,
                fp_full_scale=fp / cfg.scale_factor,
                tp_closed_form=tp_cf,
                precision_closed_form=(
                    tp_cf / (tp_cf + fp) if tp_cf + fp > 0 else None
                ),
            )
        )
    return AdversaryReport(
        scenario=scenario,
        engine=cfg.engine,
        seed=cfg.seed,
        per_threshold=tuple(metrics),
    )


@dataclass(frozen=True)
class FftCell:
    scenario: str
    availability: float
    theta_days: float
    fp: int
    fp_full_scale: float


def fft_table(
    base: SimulationConfig,
    availabilities: Sequence[float] = AVAILABILITY_GRID,
    theta_days_grid: Sequence[float] = THETA_DAYS_GRID,
) -> list[FftCell]:
    """Falsely-flagged-post counts over the availability x threshold grid.

    Each cell runs its own mechanism (the shape parameter is re-tuned with
    theta* equal to that cell's threshold) and reports both scenarios.  On
    the accelerated engine all cells share one pass over the population.
    """
    grid = [(float(a), float(d)) for a in availabilities for d in theta_days_grid]
    configs = [
        dataclasses.replace(
            base, availability_target=a, theta_star_for_tuning=d * DAY,
            thresholds_to_evaluate=(d * DAY,),
        )
        for a, d in grid
    ]
    counts = _simulate([(cfg, build_mechanism(cfg.tuning_spec())) for cfg in configs])
    return [
        FftCell(scenario, a, d, m.fp, m.fp_full_scale)
        for (a, d), cfg, c in zip(grid, configs, counts)
        for scenario in SCENARIOS
        for m in _report_from_counts(cfg, c, scenario).per_threshold
    ]
