"""Lethe: deletion privacy through intermittent withdrawal.

Non-deleted posts alternate between visible and hidden phases drawn from
tuned duration distributions, so a persistent observer cannot tell a post
the platform is temporarily hiding from one its owner deleted.  The package
provides the duration-distribution engine, likelihood-ratio privacy
analytics, parameter tuning, per-post schedules, an adversary
precision/recall simulator, interaction-utility evaluation and a
visibility-gated archival store with a line-delimited JSON TCP interface.
"""

__version__ = "0.1.0"

from .distributions import DurationDistribution, make_distribution
from .privacy import (
    LikelihoodRatio,
    ObservationSummary,
    availability,
    likelihood_ratio,
)
from .schedule import schedule_key
from .tuning import TuningSpec, build_mechanism, mean_up_for_availability, optimal_shape

__all__ = [
    "DurationDistribution",
    "LikelihoodRatio",
    "ObservationSummary",
    "TuningSpec",
    "availability",
    "build_mechanism",
    "likelihood_ratio",
    "make_distribution",
    "mean_up_for_availability",
    "optimal_shape",
    "schedule_key",
    "__version__",
]
