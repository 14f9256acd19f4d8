"""Mechanism parameter selection.

Two knobs matter: the mean up time, fixed by the availability target, and the
negative-binomial shape parameter n of the down distribution, chosen so the
down CCDF (and hence the deleter's likelihood ratio) is as favorable as
possible at the platform's estimate of the adversary's decision threshold.
The shape search maximizes CCDF(theta*-1) directly over log n; the objective
is unimodal in the regime of interest and direct search avoids
differentiating the incomplete beta in its shape argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import (
    GEOMETRIC,
    NEGATIVE_BINOMIAL,
    DurationDistribution,
    make_distribution,
    negative_binomial_tail,
)
from .privacy import availability

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_SHAPE_LO, _LOG_SHAPE_HI = math.log(1e-8), math.log(1.0)  # the search bracket in log n
_LOG_SHAPE_TOL = 1e-12  # bracket width in log n at which the search stops


class TuningError(RuntimeError):
    """Raised when no interior optimum exists in the search bracket."""


@dataclass(frozen=True)
class TuningSpec:
    """Operator inputs: availability target, mean down time, threshold estimate.

    ``decision_threshold_estimate`` (theta*, seconds) is how long the operator
    believes the adversary will wait before flagging a hidden post as deleted.
    """

    availability_target: float
    mean_down: float
    decision_threshold_estimate: float

    def __post_init__(self):
        if not 0.0 < self.availability_target < 1.0:
            raise ValueError(
                f"availability_target must be in (0, 1), got {self.availability_target}"
            )
        if self.mean_down < 1.0:
            raise ValueError(f"mean_down must be >= 1 second, got {self.mean_down}")
        if not self.mean_down < self.decision_threshold_estimate < math.inf:
            raise ValueError("decision threshold estimate must be finite and exceed mean_down")


def mean_up_for_availability(availability_target: float, mean_down: float) -> float:
    """Mean up time (seconds) yielding the target availability."""
    if not 0.0 < availability_target < 1.0:
        raise ValueError(
            f"availability must be in (0, 1), got {availability_target}"
        )
    return mean_down * availability_target / (1.0 - availability_target)


def optimal_shape(mean_down: float, theta_star: float) -> float:
    """Shape n maximizing the down CCDF at theta* - 1.

    Golden-section search over log n.  The returned point is verified to be an
    interior optimum: the bracket ends must not beat it, and the central
    finite-difference log-gradient |d ln CCDF / d ln n| must be < 1e-4.
    """
    if theta_star <= mean_down:
        raise TuningError("theta_star must exceed the mean down time")

    make_distribution(NEGATIVE_BINOMIAL, mean_down, shape=1.0)  # refuses a mean no law can have

    def objective(log_n: float) -> float:
        return negative_binomial_tail(int(theta_star) - 1, mean_down, math.exp(log_n))

    lo, hi = _LOG_SHAPE_LO, _LOG_SHAPE_HI
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > _LOG_SHAPE_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
    log_n = 0.5 * (lo + hi)
    best = objective(log_n)

    if max(objective(_LOG_SHAPE_LO), objective(_LOG_SHAPE_HI)) >= best:
        raise TuningError(
            "down-CCDF objective is monotone over the shape bracket; "
            "no interior optimum"
        )
    h = 1e-3
    gradient = (objective(log_n + h) - objective(log_n - h)) / (2.0 * h)
    if abs(gradient) / best >= 1e-4:
        raise TuningError(
            f"shape search did not reach a stationary point "
            f"(|d lnCCDF/d ln n| = {abs(gradient) / best:.3e})"
        )
    return math.exp(log_n)


def build_mechanism(
    spec: TuningSpec,
) -> tuple[DurationDistribution, DurationDistribution]:
    """Geometric up and tuned negative-binomial down distributions."""
    mean_up = mean_up_for_availability(spec.availability_target, spec.mean_down)
    shape = optimal_shape(spec.mean_down, spec.decision_threshold_estimate)
    up = make_distribution(GEOMETRIC, mean_up)
    down = make_distribution(NEGATIVE_BINOMIAL, spec.mean_down, shape=shape)
    achieved = availability(up.mean, down.mean)
    assert abs(achieved - spec.availability_target) < 1e-9
    return up, down
