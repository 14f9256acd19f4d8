"""Deletion-privacy analytics: likelihood ratio, availability, figure curves.

The adversary watching a hidden post weighs two hypotheses: the owner deleted
it, or the platform merely has it in a down phase.  The likelihood ratio of
those hypotheses depends only on the last observed up duration and the
elapsed down time,

    LR = (CCDF_up(dt_u) / pmf_up(dt_u) + 1) / CCDF_down(dt_d - 1),

so it is driven by the up distribution's inverse hazard rate and the down
distribution's CCDF.  Lower is better for the deleter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import DurationDistribution


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


def availability(mean_up: float, mean_down: float) -> float:
    """Long-run fraction of time a non-deleted post is visible."""
    if mean_up <= 0 or mean_down <= 0:
        raise ValueError("means must be positive")
    return mean_up / (mean_up + mean_down)


def _grid(t_max: int, step: int) -> range:
    if step < 1:
        raise ValueError(f"step must be >= 1 second, got {step}")
    return range(step, int(t_max) + 1, int(step))


def inverse_hazard_curve(
    d: DurationDistribution, t_max: int, step: int
) -> list[tuple[int, float]]:
    """Series of (t, ccdf(t)/pmf(t)); points outside the support become inf."""
    points = []
    for t in _grid(t_max, step):
        try:
            value = d.inverse_hazard(t)
        except ZeroDivisionError:
            value = math.inf
        points.append((t, value))
    return points


def inverse_ccdf_curve(
    d: DurationDistribution, t_max: int, step: int
) -> list[tuple[int, float]]:
    """Series of (t, 1/ccdf(t-1)); the down-distribution term of the LR."""
    return _over_ccdf(1.0, d, _grid(t_max, step))


def _over_ccdf(numerator: float, d: DurationDistribution, ts: range) -> list[tuple[int, float]]:
    """(t, numerator / ccdf(t-1)) for each t; inf where the ccdf is 0 or the
    quotient overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        values = numerator / d.ccdf_array(np.asarray(ts) - 1)
    return list(zip(ts, values.tolist()))


def lr_curve(
    up: DurationDistribution,
    downs: Sequence[DurationDistribution],
    t_max: int,
    step: int,
) -> list[tuple[DurationDistribution, list[tuple[int, float]]]]:
    """LR as a function of down-elapsed time, per candidate down distribution.

    The up distribution contributes a constant factor (it is geometric in
    every deployment this tool targets), so each series is
    (inverse_hazard_up + 1) / ccdf_down(t - 1).
    """
    constant = up.inverse_hazard(1) + 1.0
    ts = _grid(t_max, step)
    return [(down, _over_ccdf(constant, down, ts)) for down in downs]
