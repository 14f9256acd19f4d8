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
replaces per-phase drawing with the renewal approximation - flag counts are
Poisson with the analytically expected per-post rate, first-flag events are
Bernoulli through the same thinning - which reaches the hundred-million-post
configurations on one machine.  Every post and chunk draws from its own
substream, so both engines are deterministic given (seed, config), with the
same counts for any number of workers (exact: processes, accelerated: threads).
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ._rng import substream
from .distributions import DurationDistribution
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


@dataclass
class _Counts:
    """Raw counters per threshold, for both scenarios in one pass."""

    thetas: tuple[int, ...]
    fp_multi: np.ndarray = field(init=False)
    tp_multi: np.ndarray = field(init=False)
    fp_once: np.ndarray = field(init=False)
    fn_once: np.ndarray = field(init=False)
    tp_once: np.ndarray = field(init=False)

    def __post_init__(self):
        k = len(self.thetas)
        for name in ("fp_multi", "tp_multi", "fp_once", "fn_once", "tp_once"):
            setattr(self, name, np.zeros(k, dtype=np.int64))

    def merge(self, other: "_Counts") -> None:
        for name in ("fp_multi", "tp_multi", "fp_once", "fn_once", "tp_once"):
            mine = getattr(self, name)
            mine += getattr(other, name)


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
    s = created_day.astype(np.float64)
    e = rng.standard_exponential(len(s))
    if growth != 0.0:
        t_del = ((n0 + growth * s) * np.exp(growth * e / rate) - n0) / growth
    else:
        t_del = s + e * n0 / rate
    t_del = np.minimum(t_del, float(cfg.horizon_days + 1))
    day = np.ceil(t_del).astype(np.int64)
    day = np.maximum(day, created_day + 1)
    day[day > cfg.horizon_days] = -1
    return day


# ---------------------------------------------------------------------------
# exact engine


def _draw_phases(
    up: DurationDistribution,
    down: DurationDistribution,
    rng: np.random.Generator,
    span: int,
    mean_cycle: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Down-phase (start, end) offsets covering at least [0, span]."""
    ups: list[np.ndarray] = []
    downs: list[np.ndarray] = []
    total = 0
    while total < span:
        est = max(16, int((span - total) / mean_cycle * 1.25) + 16)
        u = np.asarray(up.sample(rng, size=est), dtype=np.int64)
        d = np.asarray(down.sample(rng, size=est), dtype=np.int64)
        ups.append(u)
        downs.append(d)
        total += int(u.sum() + d.sum())
    u = np.concatenate(ups)
    d = np.concatenate(downs)
    toggles = np.empty(2 * len(u), dtype=np.int64)
    toggles[0::2] = u
    toggles[1::2] = d
    np.cumsum(toggles, out=toggles)
    return toggles[0::2], toggles[1::2]  # down starts, down ends


def _exact_post(
    counts: _Counts,
    thetas: np.ndarray,
    down_start: np.ndarray,
    down_end: np.ndarray,
    t_del: int | None,
    horizon: int,
) -> None:
    """Accumulate flag events for one post (offsets relative to creation)."""
    if t_del is None:
        obs_len = np.minimum(down_end, horizon) - down_start
        obs_len = obs_len[obs_len >= thetas[0]]  # shorter phases flag nothing
        if len(obs_len):
            counts.fp_multi += (obs_len[None, :] // thetas[:, None]).sum(axis=1)
            longest = int(obs_len.max())
            counts.fp_once += longest >= thetas
        return

    # deleted post: phases fully completed while alive, then the terminal
    # observed down period (which may merge with a scheduled down phase)
    idx = int(np.searchsorted(down_start, t_del, side="right"))
    complete = slice(0, idx)
    lens = down_end[complete] - down_start[complete]
    if idx > 0 and down_end[idx - 1] >= t_del:
        # deletion inside (or exactly at the end of) that down phase: it
        # becomes the terminal observed down period
        term_start = int(down_start[idx - 1])
        lens = lens[:-1]
    else:
        term_start = t_del
    lens = lens[lens >= thetas[0]]  # shorter phases flag nothing

    pre = np.maximum(t_del - term_start - 1, 0) // thetas  # flags before t_del
    if len(lens):
        counts.fp_multi += (lens[None, :] // thetas[:, None]).sum(axis=1)
    counts.fp_multi += pre
    first_after = term_start + (pre + 1) * thetas
    counts.tp_multi += first_after <= horizon

    preflagged = (pre >= 1) | (
        (int(lens.max()) if len(lens) else 0) >= thetas
    )
    counts.fp_once += preflagged
    counts.fn_once += preflagged
    counts.tp_once += (~preflagged) & (first_after <= horizon)


def _exact_posts(
    cfg: SimulationConfig,
    up: DurationDistribution,
    down: DurationDistribution,
    created: np.ndarray,
    deleted: np.ndarray,
    first: int,
    step: int,
) -> _Counts:
    """Counts summed over posts first, first + step, ... of the population."""
    thetas = np.asarray(sorted(int(t) for t in cfg.thresholds_to_evaluate))
    horizon = cfg.horizon_seconds
    mean_cycle = up.mean + down.mean

    counts = _Counts(tuple(thetas))
    for uid in range(first, cfg.total_posts, step):
        t0 = int(created[uid]) * DAY
        t_del = int(deleted[uid]) * DAY - t0 if deleted[uid] >= 0 else None
        span = t_del if t_del is not None else horizon - t0
        if span <= 0:
            continue
        rng = substream(cfg.seed, "post", uid)
        down_start, down_end = _draw_phases(up, down, rng, span, mean_cycle)
        _exact_post(counts, thetas, down_start, down_end, t_del, horizon - t0)
    return counts


def _run_exact(
    cfg: SimulationConfig,
    up: DurationDistribution,
    down: DurationDistribution,
) -> _Counts:
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
        parts = list(pool.map(task, range(workers), [workers] * workers))
    for part in parts[1:]:
        parts[0].merge(part)
    return parts[0]


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


def _stationary_age_cdf(
    down: DurationDistribution, tail_ks: np.ndarray, tail_cc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-transform table for the age of an in-progress down phase.

    A deletion landing inside a down phase merges invisibly into it; how far
    that phase had already progressed follows the stationary age density
    ccdf(a) / mean_down.
    """
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * (tail_cc[1:] + tail_cc[:-1]) * np.diff(tail_ks))]
    )
    cdf = cumulative / cumulative[-1]
    return cdf, tail_ks


@dataclass(frozen=True)
class _RenewalModel:
    """Per-mechanism quantities precomputed for the accelerated engine."""

    thetas: np.ndarray
    level_q: list[np.ndarray]  # per theta: P(down >= m * theta), m = 1..
    fp_shift: np.ndarray  # per theta: first-passage location (theta + mu_up)
    fp_scale: np.ndarray  # per theta: first-passage exponential scale
    age_cdf: np.ndarray  # stationary down-phase age inverse-transform table
    age_values: np.ndarray
    mean_cycle: float
    down_fraction: float  # probability a deletion lands inside a down phase


def _build_renewal_model(
    cfg: SimulationConfig,
    up: DurationDistribution,
    down: DurationDistribution,
) -> _RenewalModel:
    thetas = np.asarray(sorted(int(t) for t in cfg.thresholds_to_evaluate))
    tail_ks, tail_cc = _down_tail_grid(down, 4 * cfg.horizon_seconds)
    age_cdf, age_values = _stationary_age_cdf(down, tail_ks, tail_cc)
    # time to first flag approximated as shift + Exponential(scale)
    shift = thetas + up.mean
    means = np.array(
        [_first_passage_mean(up, down, int(t), tail_ks, tail_cc) for t in thetas]
    )
    return _RenewalModel(
        thetas=thetas,
        level_q=[_level_ccdfs(down, int(t), cfg.horizon_seconds) for t in thetas],
        fp_shift=shift,
        fp_scale=means - shift,
        age_cdf=age_cdf,
        age_values=age_values,
        mean_cycle=up.mean + down.mean,
        down_fraction=down.mean / (up.mean + down.mean),
    )


def _accelerated_chunk(
    cfg: SimulationConfig,
    chunk_index: int,
    created_day: np.ndarray,
    model: _RenewalModel,
) -> _Counts:
    rng = substream(cfg.seed, "chunk", chunk_index)
    horizon = cfg.horizon_seconds
    del_day = _hazard_deletion_days(cfg, created_day, rng)
    is_deleted = del_day >= 0
    t0 = created_day * DAY
    end = np.where(is_deleted, del_day * DAY, horizon)
    exposure = (end - t0).astype(np.int64)
    t_del = np.where(is_deleted, del_day * DAY, horizon + DAY)

    # A deletion landing mid-down (prob. mean_down / mean_cycle) merges into
    # an outage that started `age` seconds earlier, advancing the terminal
    # flag crossing accordingly.
    mid_down = is_deleted & (rng.random(len(t0)) < model.down_fraction)
    age = np.zeros(len(t0), dtype=np.int64)
    if mid_down.any():
        age[mid_down] = np.interp(
            rng.random(int(mid_down.sum())), model.age_cdf, model.age_values
        ).astype(np.int64)

    counts = _Counts(tuple(model.thetas))
    for j, theta in enumerate(model.thetas):
        qs = model.level_q[j]
        # expected flag events per post: sum_m q_m * max(0, exposure - m*theta) / mean_cycle
        m_max = (exposure // theta).clip(0, len(qs))
        q1_prefix = np.concatenate([[0.0], np.cumsum(qs)])
        qm_prefix = np.concatenate(
            [[0.0], np.cumsum(qs * np.arange(1, len(qs) + 1))]
        )
        lam = np.maximum(
            exposure * q1_prefix[m_max] - float(theta) * qm_prefix[m_max], 0.0
        ) / model.mean_cycle
        counts.fp_multi[j] = int(rng.poisson(lam).sum())

        # terminal crossing: first flag at or after the deletion instant
        first_after = t_del + theta - age % theta
        caught = is_deleted & (first_after <= horizon)
        counts.tp_multi[j] = int(caught.sum())

        # first flag while alive: shifted-exponential first passage
        p_flag = -np.expm1(
            -np.maximum(exposure - model.fp_shift[j], 0.0) / model.fp_scale[j]
        )
        flagged = rng.random(len(p_flag)) < p_flag
        counts.fp_once[j] = int(flagged.sum())
        counts.fn_once[j] = int((flagged & is_deleted).sum())
        counts.tp_once[j] = int(((~flagged) & caught).sum())
    return counts


def _run_accelerated(
    cfg: SimulationConfig,
    up: DurationDistribution,
    down: DurationDistribution,
) -> _Counts:
    model = _build_renewal_model(cfg, up, down)

    # virtual post ordering: initial posts first, then each day's batch
    def created_days_for(lo: int, hi: int) -> np.ndarray:
        ids = np.arange(lo, hi, dtype=np.int64)
        days = np.where(
            ids < cfg.initial_posts,
            0,
            1 + (ids - cfg.initial_posts) // cfg.creations_per_day,
        )
        return days

    total = cfg.total_posts
    chunks = [
        (index, lo, min(lo + _CHUNK, total))
        for index, lo in enumerate(range(0, total, _CHUNK))
    ]
    counts = _Counts(tuple(model.thetas))

    def work(args: tuple[int, int, int]) -> _Counts:
        index, lo, hi = args
        return _accelerated_chunk(cfg, index, created_days_for(lo, hi), model)

    workers = cfg.workers
    if workers <= 1 or len(chunks) == 1:
        for chunk in chunks:
            counts.merge(work(chunk))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(work, chunks):
                counts.merge(part)
    return counts


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
    up, down = mechanism if mechanism is not None else build_mechanism(cfg.tuning_spec())
    if cfg.engine == "exact":
        counts = _run_exact(cfg, up, down)
    else:
        counts = _run_accelerated(cfg, up, down)
    return {
        scenario: _report_from_counts(cfg, counts, scenario)
        for scenario in SCENARIOS
    }


def _report_from_counts(
    cfg: SimulationConfig, counts: _Counts, scenario: str
) -> AdversaryReport:
    metrics = []
    for j, theta in enumerate(counts.thetas):
        if scenario == FLAG_MULTI:
            tp, fp, fn = counts.tp_multi[j], counts.fp_multi[j], 0
        else:
            tp, fp, fn = counts.tp_once[j], counts.fp_once[j], counts.fn_once[j]
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
    theta* equal to that cell's threshold) and reports both scenarios.
    """
    cells: list[FftCell] = []
    for availability in availabilities:
        for theta_days in theta_days_grid:
            theta = float(theta_days) * DAY
            cfg = dataclasses.replace(
                base,
                availability_target=availability,
                theta_star_for_tuning=theta,
                thresholds_to_evaluate=(theta,),
            )
            reports = run_both_scenarios(cfg)
            for scenario in SCENARIOS:
                m = reports[scenario].per_threshold[0]
                cells.append(
                    FftCell(
                        scenario=scenario,
                        availability=availability,
                        theta_days=float(theta_days),
                        fp=m.fp,
                        fp_full_scale=m.fp_full_scale,
                    )
                )
    return cells


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
