"""Deletion-privacy analytics: availability and the figure curves.

The adversary watching a hidden post weighs two hypotheses: the owner deleted
it, or the platform merely has it in a down phase.  The likelihood ratio of
those hypotheses depends only on the last observed up duration and the
elapsed down time,

    LR = (CCDF_up(dt_u) / pmf_up(dt_u) + 1) / CCDF_down(dt_d - 1),

so it is driven by the up distribution's inverse hazard rate and the down
distribution's CCDF.  Lower is better for the deleter.  The curves give
the two factors, and the LR itself, over a grid of elapsed times.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .distributions import DurationDistribution


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
