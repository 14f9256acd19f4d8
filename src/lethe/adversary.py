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
hundred-million-post configurations on one machine.  The accelerated engine
draws each chunk's population (every post's deletion day) once and shares it
between all mechanisms of a run, such as the cells of the fft_table grid.
Exposure is a whole number of days, so per mechanism a chunk's flag counts
are one Poisson draw at the summed expected rate, and the survivors' first
flags one binomial per exposure day; only deleted posts are drawn one by
one.  Each draw has the law of the per-post draws it stands for, and every
mechanism continues the chunk's stream from the same state, so cells share
common random numbers.  The exact engine draws post i's phases with the
store's schedule generator (schedule.py): block b of its schedule comes from
Philox keyed by HMAC-SHA256(secret, i) at counter b << 192, where the secret
is derived from the seed.  It draws its posts in batches bounded by block
count (``toggle_batches``), with the toggles of drawing them one at a time,
and counts each batch's flags vectorised over its down phases.  Every chunk
draws from its own substream.  So both engines are deterministic given
(seed, config), with the same counts for any number of workers (exact:
processes, accelerated: threads).
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._rng import substream
from .distributions import DurationDistribution
from .schedule import schedule_key, toggle_batches
from .tuning import TuningSpec, build_mechanism

DAY = 86400

_EXACT_POST_LIMIT = 300_000
_CHUNK = 1_000_000

FLAG_ONCE = "flag-once"
FLAG_MULTI = "flag-multi"
SCENARIOS = (FLAG_ONCE, FLAG_MULTI)


@dataclass(frozen=True)
class SimulationConfig:
    """Population, mechanism and adversary parameters for one run.

    ``scale_factor`` is the simulated platform's size relative to the real
    one; reported counts are divided by it to get full-platform numbers.
    ``thresholds_to_evaluate`` are adversary thresholds in seconds, all
    evaluated against the single mechanism tuned at ``theta_star_for_tuning``.
    ``threads`` is either engine's worker count (default: the CPU count):
    processes for the exact engine, threads for the accelerated one.
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
        if min(self.initial_posts, self.creations_per_day, self.horizon_days) < 1:
            raise ValueError("initial_posts, creations_per_day, horizon_days must be positive")
        if self.deletions_per_day < 1:
            raise ValueError("deletions_per_day must be positive")
        if self.deletions_per_day >= self.creations_per_day + self.initial_posts / self.horizon_days:
            raise ValueError("deletion rate would drain the platform")
        if not self.thresholds_to_evaluate:
            raise ValueError("need at least one decision threshold")
        for theta in self.thresholds_to_evaluate:
            if theta >= self.horizon_days * DAY:
                raise ValueError(
                    f"threshold {theta} s is not below the horizon "
                    f"({self.horizon_days} days)"
                )
        if not 0.0 < self.scale_factor <= 1.0:
            raise ValueError("scale_factor must be in (0, 1]")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be at least 1 (or None for the CPU count)")

    @property
    def horizon_seconds(self) -> int:
        return self.horizon_days * DAY

    @property
    def total_posts(self) -> int:
        return self.initial_posts + self.creations_per_day * self.horizon_days

    @property
    def workers(self) -> int:
        return self.threads or os.cpu_count() or 1

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

    @property
    def threshold_days(self) -> float:
        return self.threshold_seconds / DAY


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
    total = cfg.total_posts
    created = np.empty(total, dtype=np.int64)
    deleted = np.full(total, -1, dtype=np.int64)
    created[: cfg.initial_posts] = 0

    alive = np.empty(total, dtype=np.int64)
    alive[: cfg.initial_posts] = np.arange(cfg.initial_posts)
    n_alive = cfg.initial_posts
    next_id = cfg.initial_posts

    for day in range(1, cfg.horizon_days + 1):
        if cfg.deletions_per_day > n_alive:
            raise RuntimeError(f"population drained on day {day}")
        picks = rng.choice(n_alive, size=cfg.deletions_per_day, replace=False)
        deleted[alive[picks]] = day
        for i in np.sort(picks)[::-1]:
            n_alive -= 1
            alive[i] = alive[n_alive]
        new = np.arange(next_id, next_id + cfg.creations_per_day)
        created[new] = day
        alive[n_alive : n_alive + cfg.creations_per_day] = new
        n_alive += cfg.creations_per_day
        next_id += cfg.creations_per_day
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
    e = rng.standard_exponential(len(created_day))
    if growth != 0.0:
        t_del = ((n0 + growth * created_day) * np.exp(growth * e / rate) - n0) / growth
    else:
        t_del = created_day + e * n0 / rate
    np.minimum(t_del, float(cfg.horizon_days + 1), out=t_del)
    day = np.ceil(t_del, out=t_del).astype(np.int64)
    np.maximum(day, created_day + 1, out=day)
    day[day > cfg.horizon_days] = -1
    return day


# ---------------------------------------------------------------------------
# exact engine


def _count_flags(
    counts: np.ndarray,
    thetas: np.ndarray,
    toggles: np.ndarray,
    bounds: Sequence[int],
    t_del: np.ndarray,
    ends: np.ndarray,
) -> None:
    """Accumulate flag events for a batch of posts, vectorised over their
    down phases.  Post i's toggles are toggles[bounds[i]:bounds[i + 1]],
    offsets from its creation; t_del[i] is its deletion offset (-1 if it
    survives) and ends[i] the horizon's.

    A surviving post's down phases are observed up to the horizon.  A
    deleted post's phases completed while it was alive count in full, and
    then comes the terminal observed down period: it starts with the down
    phase the deletion lands in (or ends exactly at), else at the deletion.
    """
    starts, stops = toggles[0::2], toggles[1::2]  # every down phase
    post = np.repeat(np.arange(len(t_del)), np.diff(bounds) // 2)
    cut = np.where(t_del >= 0, t_del, ends)[post]
    lens = np.minimum(stops, cut) - starts
    # a deletion's phase is the one with start <= t_del <= stop
    straddle = np.flatnonzero((lens >= 0) & (stops >= cut))
    terminal = straddle[t_del[post[straddle]] >= 0]
    term_start = t_del.copy()
    term_start[post[terminal]] = starts[terminal]
    lens[terminal] = 0
    long = np.flatnonzero(lens >= thetas[0])  # shorter phases flag nothing
    long_lens = lens[long]
    counts[_FP_MULTI] += (long_lens[None, :] // thetas[:, None]).sum(axis=1)
    longest = np.zeros(len(t_del), dtype=np.int64)
    np.maximum.at(longest, post[long], long_lens)
    flagged = longest[:, None] >= thetas  # a completed phase flagged the post

    gone = t_del >= 0
    counts[_FP_ONCE] += flagged[~gone].sum(axis=0)
    t_del, term_start, ends = t_del[gone, None], term_start[gone, None], ends[gone, None]
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
    """Counts summed over posts first, first + step, ... of the population,
    drawn and counted in batches."""
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
    for lo, toggles, bounds in toggle_batches(up, down, posts):
        hi = lo + len(bounds) - 1
        _count_flags(counts, thetas, toggles, bounds, t_del[lo:hi], ends[lo:hi])
    return counts


def _run_exact(
    cfg: SimulationConfig,
    up: DurationDistribution,
    down: DurationDistribution,
) -> np.ndarray:
    if cfg.total_posts > _EXACT_POST_LIMIT:
        raise ValueError(
            f"exact engine supports up to {_EXACT_POST_LIMIT} posts "
            f"({cfg.total_posts} requested); use the accelerated engine"
        )
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
    """P(down phase >= m * theta) for m = 1 .. horizon // theta."""
    m_max = max(1, horizon // theta)
    qs = []
    for m in range(1, m_max + 1):
        q = down.ccdf(m * theta - 1)
        qs.append(q)
        if q < 1e-18:
            break
    return np.asarray(qs)


def _down_tail_grid(down: DurationDistribution, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced grid of k and ccdf(k) spanning the distribution's tail."""
    ks = np.unique(
        np.concatenate(
            [np.arange(0, 64), np.round(np.geomspace(64, max(span, 128), 512))]
        ).astype(np.int64)
    )
    cc = np.array([down.ccdf(int(k)) for k in ks])
    return ks.astype(np.float64), cc


def _first_passage_mean(
    up: DurationDistribution,
    down: DurationDistribution,
    theta: int,
    tail_ks: np.ndarray,
    tail_cc: np.ndarray,
) -> float:
    """Expected time until the adversary's first flag of a never-deleted post.

    Cycles that do not flag have a conditionally *shorter* down phase (the
    heavy tail is exactly what flags), so the naive q / mean_cycle rate
    understates the flag hazard.  The first flag lands after a
    Geometric(q) number of cycles:

        E[T*] = (1 - q)/q * (mu_up + E[D | D < theta]) + mu_up + theta
    """
    q = down.ccdf(theta - 1)
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
        # time to first flag approximated as shift + Exponential(scale)
        shift = theta + up.mean
        scale = _first_passage_mean(up, down, int(theta), tail_ks, tail_cc) - shift
        first_flag[j] = -np.expm1(-np.maximum(exposure - shift, 0.0) / scale)
    return _RenewalModel(
        thetas=thetas,
        flag_mean=flag_mean,
        first_flag=first_flag,
        age_cdf=np.concatenate([[0.0], age / age[-1]]),
        age_values=tail_ks,
        down_fraction=down.mean / mean_cycle,
    )


def _chunk_population(cfg: SimulationConfig, index: int, lo: int, hi: int) -> tuple:
    """One chunk's posts, reduced to never-deleted posts per exposure day and
    each deleted post's exposure and deletion day, plus the chunk stream's
    state after these draws."""
    # virtual post ordering: initial posts first, then each day's batch
    created = np.arange(lo - cfg.initial_posts, hi - cfg.initial_posts, dtype=np.int64)
    created //= cfg.creations_per_day  # in place: a chunk holds a million posts
    created += 1
    np.maximum(created, 0, out=created)
    rng = substream(cfg.seed, "chunk", index)
    deleted = _hazard_deletion_days(cfg, created, rng)
    gone = np.flatnonzero(deleted >= 0)
    per_day = cfg.horizon_days + 1
    survivors = np.bincount(created, minlength=per_day) - np.bincount(
        created[gone], minlength=per_day
    )
    exposure = deleted[gone] - created[gone]
    return survivors[::-1], exposure, deleted[gone], rng.bit_generator.state


def _chunk_counts(model: _RenewalModel, population: tuple, horizon: int) -> np.ndarray:
    """Counts for one mechanism over one chunk's population.

    Per-post Poisson flag counts sum to one Poisson, and the survivors'
    first-flag Bernoullis to one binomial per exposure day.  Deleted posts
    keep per-post draws, because being caught depends on each one's age.
    """
    survivors, exposure, deleted_day, stream = population
    # every mechanism continues the same stream: common random numbers
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = stream
    fp_multi = rng.poisson(
        model.flag_mean @ survivors + model.flag_mean[:, exposure].sum(axis=1)
    )
    survivors_flagged = rng.binomial(survivors, model.first_flag).sum(axis=1)

    # A deletion landing mid-down (prob. mean_down / mean_cycle) merges into
    # an outage that started `age` seconds earlier, advancing the terminal
    # flag crossing accordingly.
    mid_down = rng.random(len(exposure)) < model.down_fraction
    age = np.zeros(len(exposure), dtype=np.int64)  # whole seconds, truncated
    age[mid_down] = np.interp(rng.random(int(mid_down.sum())), model.age_cdf, model.age_values)
    # terminal crossing: first flag at or after the deletion instant
    thetas = model.thetas[:, None]
    caught = deleted_day * DAY + thetas - age % thetas <= horizon
    flagged = rng.random((len(thetas), len(exposure))) < model.first_flag[:, exposure]
    fn_once = flagged.sum(axis=1)
    tp_once = (caught & ~flagged).sum(axis=1)
    return np.array([fp_multi, caught.sum(axis=1), survivors_flagged + fn_once, fn_once, tp_once])


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
        return [_chunk_counts(model, population, cfg.horizon_seconds) for model in models]

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
    ((N0 + g s) / (N0 + g t))^(D/g) for growth g = C - D.
    """
    n0 = float(cfg.initial_posts)
    growth = float(cfg.creations_per_day - cfg.deletions_per_day)
    rate = float(cfg.deletions_per_day)
    horizon = float(cfg.horizon_days)
    lo = np.minimum(np.maximum(from_days, s_days), horizon)
    if growth == 0.0:
        tau = n0 / rate
        return tau * (
            np.exp(-(lo - s_days) / tau) - np.exp(-(horizon - s_days) / tau)
        )
    kappa = rate / growth
    a_s = n0 + growth * s_days
    a_lo = n0 + growth * lo
    a_hi = n0 + growth * horizon
    if abs(kappa - 1.0) < 1e-12:
        return (a_s / growth) * np.log(a_hi / a_lo)
    coeff = a_s**kappa / (growth * (1.0 - kappa))
    return coeff * (a_hi ** (1.0 - kappa) - a_lo ** (1.0 - kappa))


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
    s_days = np.concatenate(
        [[0.0], np.arange(1, cfg.horizon_days + 1, dtype=np.float64)]
    )
    cohort = np.concatenate(
        [
            [float(cfg.initial_posts)],
            np.full(cfg.horizon_days, float(cfg.creations_per_day)),
        ]
    )
    total = 0.0
    for m, q in enumerate(qs, start=1):
        offset_days = m * theta / DAY
        expected_days = _survival_integral(cfg, s_days, s_days + offset_days)
        total += q * float((cohort * expected_days).sum()) * DAY / mean_cycle
    return total


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
    availabilities: Sequence[float] = (0.85, 0.90, 0.95),
    theta_days_grid: Sequence[float] = (30, 60, 90, 120, 150, 180),
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


def write_fft_csv(path, cells: Iterable[FftCell]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "availability", "theta_days", "fp", "fp_full_scale"]
        )
        for cell in cells:
            writer.writerow(
                [
                    cell.scenario,
                    cell.availability,
                    cell.theta_days,
                    cell.fp,
                    f"{cell.fp_full_scale:.6g}",
                ]
            )
