"""Oracles that the tests check the library against: the likelihood ratio
of one observation, the utility of exponentially decaying interactions, and
straightforward references for the accelerated engine: its per-chunk counts,
one deletion draw per post, and the survival integral of the analytic
oracle, one level at a time.  No code in the package calls them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lethe.distributions import GEOMETRIC, NEGATIVE_BINOMIAL, DurationDistribution
from lethe.utility import DEFAULT_DECAY_MEAN


@dataclass(frozen=True)
class ObservationSummary:
    """What the adversary can extract from watching one hidden post:
    ``last_up`` is the duration of the last observed up phase and
    ``down_elapsed`` how long the post has been hidden since, both in whole
    seconds.  The LR depends on nothing else, in particular not on when the
    observation is made.
    """

    last_up: int
    down_elapsed: int

    def __post_init__(self):
        if self.last_up < 1:
            raise ValueError(f"last_up must be >= 1, got {self.last_up}")
        if self.down_elapsed < 1:
            raise ValueError(f"down_elapsed must be >= 1, got {self.down_elapsed}")


@dataclass(frozen=True)
class LikelihoodRatio:
    """Outcome of the deletion-vs-withdrawal likelihood ratio test.

    ``value`` is linear scale and may be ``math.inf`` (finite-support down
    distribution exhausted).  ``certain`` marks the distinct case where the
    observed up duration is impossible without a deletion cutting it short,
    so the adversary knows regardless of the down time.
    """

    value: float
    certain: bool = False


def likelihood_ratio(
    up: DurationDistribution,
    down: DurationDistribution,
    obs: ObservationSummary,
) -> LikelihoodRatio:
    """Likelihood ratio of "deleted" vs "just withdrawn" after ``obs``."""
    up_pmf = up.pmf(obs.last_up)
    if up_pmf == 0.0:
        # An up phase of this length has probability zero unless a deletion
        # truncated it: the adversary is certain.
        return LikelihoodRatio(value=math.inf, certain=True)
    numerator = up.inverse_hazard(obs.last_up) + 1.0
    denominator = down.ccdf(obs.down_elapsed - 1)
    if denominator == 0.0:
        return LikelihoodRatio(value=math.inf)
    return LikelihoodRatio(value=numerator / denominator)


def expected_utility(
    up: DurationDistribution,
    down: DurationDistribution,
    decay_mean: float = DEFAULT_DECAY_MEAN,
) -> float:
    """Closed-form utility of exponentially decaying interactions.

    Offsets floor(Exp(decay_mean)) have P(offset >= k) = q^k with
    q = exp(-1 / decay_mean), and a schedule is an alternating renewal
    process that starts up, so with G the probability generating function,
    P(up at the offset) = sum_c (G_U(q) G_D(q))^c (1 - G_U(q)).
    """
    q = math.exp(-1.0 / decay_mean)
    g_up, g_down = _pgf(up, q), _pgf(down, q)
    return (1.0 - g_up) / (1.0 - g_up * g_down)


def _pgf(d: DurationDistribution, q: float) -> float:
    """E[q^X] of a geometric or shifted negative-binomial duration (the
    kinds that tuning builds); the geometric is the shape-1 case."""
    if d.kind not in (GEOMETRIC, NEGATIVE_BINOMIAL):
        raise ValueError(f"no closed-form utility for {d.kind} durations")
    return q * (d.p / (1.0 - (1.0 - d.p) * q)) ** (d.shape or 1.0)


def chunk_counts_reference(model, population) -> np.ndarray:
    """``lethe.adversary._chunk_counts`` written plainly: fresh arrays for
    every block and threshold, and one np.interp call per block of ages.  The
    engine reorganises this arithmetic but must keep every draw and count."""
    survivors, exposed, blocks, stream = population
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = stream
    fp_multi = rng.poisson(model.flag_mean @ exposed)
    survivors_flagged = rng.binomial(survivors, model.first_flag).sum(axis=1)
    mid_down = [np.flatnonzero(rng.random(len(e)) < model.down_fraction) for e, _ in blocks]
    uniforms = [rng.random(len(mid)) for mid in mid_down]
    ages = [np.interp(u, model.age_cdf, model.age_values).astype(np.int64) for u in uniforms]
    caught, fn_once, tp_once = np.zeros((3, len(model.thetas)), dtype=np.int64)
    for j, theta in enumerate(model.thetas):
        for (exposure, slack), mid, age in zip(blocks, mid_down, ages):
            hit = theta <= slack
            hit[mid] = theta - age % theta <= slack[mid]
            flagged = rng.random(len(exposure)) < model.first_flag[j].take(exposure)
            caught[j] += np.count_nonzero(hit)
            fn_once[j] += np.count_nonzero(flagged)
            tp_once[j] += np.count_nonzero(hit > flagged)  # caught, never flagged
    return np.array([fp_multi, caught, survivors_flagged + fn_once, fn_once, tp_once])


def hazard_deletion_days(cfg, created_day: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Deletion day per post under the continuum uniform-victim hazard, one
    unit exponential per post: the per-post draw that the accelerated engine
    replaces by a binomial per creation day.

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
    day = np.ceil(np.minimum(t_del, float(cfg.horizon_days + 1))).astype(np.int64)
    day = np.maximum(day, created_day + 1)
    day[day > cfg.horizon_days] = -1
    return day


def survival_integral(cfg, s_days: np.ndarray, from_days: np.ndarray) -> np.ndarray:
    """integral_{from}^{horizon} S(t | created at s) dt, in days, where S is
    the continuum survival of the uniform-victim deletion process,
    ((N0 + g s) / (N0 + g t))^(D/g) for growth g = C - D."""
    n0 = float(cfg.initial_posts)
    growth = float(cfg.creations_per_day - cfg.deletions_per_day)
    rate = float(cfg.deletions_per_day)
    horizon = float(cfg.horizon_days)
    lo = np.clip(from_days, s_days, horizon)
    if growth == 0.0:
        tau = n0 / rate
        return tau * (np.exp(-(lo - s_days) / tau) - np.exp(-(horizon - s_days) / tau))
    kappa = rate / growth
    a_s, a_lo, a_hi = n0 + growth * s_days, n0 + growth * lo, n0 + growth * horizon
    if abs(kappa - 1.0) < 1e-12:
        return (a_s / growth) * np.log(a_hi / a_lo)
    return a_s**kappa / (growth * (1.0 - kappa)) * (a_hi ** (1.0 - kappa) - a_lo ** (1.0 - kappa))
