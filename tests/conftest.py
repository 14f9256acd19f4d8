import copy

import numpy as np
import pytest

from lethe._rng import substream
from lethe.adversary import DAY
from lethe.schedule import schedule_key
from lethe.tuning import TuningSpec, build_mechanism
from lethe.utility import UtilityResult, evaluate_utility

# Appendix-style reference shape parameters: decision-threshold days -> n
SHAPE_TABLE = {30: 6e-4, 60: 3e-4, 90: 2e-4, 120: 1.5e-4, 150: 1.2e-4, 180: 1e-4}


@pytest.fixture(scope="session")
def mechanism_90():
    """Geometric(9 h) up, negative-binomial(1 h) down tuned for theta* = 30 d."""
    return build_mechanism(TuningSpec(0.90, 3600.0, 30 * DAY))


def rng(*key) -> np.random.Generator:
    return substream(20240801, *key)


_SECRET = substream(20240801, "schedule").bytes(32)


def key(*parts) -> int:
    """A schedule key, addressed like rng(...)."""
    return schedule_key(_SECRET, repr(parts))


def utility_within_3_sigma(trace, up, down, generator, expected):
    """Evaluate utility post by post, each from a copy of generator (so with
    the same secret and draws as one evaluate_utility call), and assert that
    the missed share is within 3 sigma of p = 1 - expected.  One post's
    interactions share a schedule, so sigma is clustered per post: a post
    with n interactions misses m <= n of them, so
    Var(m) <= E[m^2] - E[m]^2 <= n^2 p (1 - p)."""
    results = [
        evaluate_utility((post,), up, down, copy.deepcopy(generator))
        for post in trace
    ]
    per_post = np.array([(r.total, r.missed) for r in results])
    total, missed = per_post.sum(axis=0)
    p = 1.0 - expected
    sigma = np.sqrt(p * (1.0 - p) * (per_post[:, 0] ** 2).sum()) / total
    assert abs(missed / total - p) <= 3 * sigma, (missed / total, p, sigma)
    return UtilityResult(allowed=int(total - missed), missed=int(missed))
