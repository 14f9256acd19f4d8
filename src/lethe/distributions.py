"""Discrete duration distributions over positive integer seconds.

These model how long a post stays visible (up) or hidden (down).  Six kinds
are supported: geometric, negative-binomial, zeta, poisson, degenerate and
discrete-uniform.  Negative-binomial and poisson naturally put mass on 0, so
they are shifted up by one second; ``pmf``, ``ccdf``, ``mean`` and ``sample``
all describe the same shifted variable, keeping ``ccdf(k) - ccdf(k+1) ==
pmf(k+1)`` for every kind.

PMF/CCDF arithmetic happens in log space wherever underflow is possible: the
deployed regime combines shape parameters around 1e-4 with horizons around
1e7 seconds, which naive arithmetic cannot represent.

The tuned negative binomial puts ~99% of its mass on 1 second, so drawing it
value by value wastes nearly all the work.  A NB(n, p) count is exactly a
Poisson(-n ln p) number of Logarithmic(1 - p) clusters (Quenouille,
Biometrics 1949).  For an int ``size`` with -n ln p <= 1, which every tuned
mechanism meets (0.002-0.01 per draw), ``NegativeBinomial.sample`` draws
Poisson(-n ln p * size) clusters, drops each in a uniform slot and returns 1
plus each slot's summed cluster lengths, so a 256-draw schedule block costs a
few cluster draws.  Larger rates, whose cluster counts grow with the rate,
and scalar draws keep numpy's gamma-Poisson sampler.  The cluster path
consumes the generator differently, so the schedule block layout changed
with it: a store log written before this sampler replays with different
schedules.

Two laws also expose their draws as two steps, so that the schedule module
can make only the generator calls block by block and finish many blocks in
one vectorised pass: ``NegativeBinomial.draw_clusters`` then ``add_clusters``
(``sample`` is their composition), and ``Geometric.from_exponentials``, the
inversion numpy's ``geometric`` applies to one standard exponential per draw
when p < 1/3.  Either way the generator is consumed exactly as by ``sample``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp
from scipy.special import betainc as regularized_incomplete_beta

GEOMETRIC = "geometric"
NEGATIVE_BINOMIAL = "negative-binomial"
ZETA = "zeta"
POISSON = "poisson"
DEGENERATE = "degenerate"
DISCRETE_UNIFORM = "discrete-uniform"

KINDS = (GEOMETRIC, NEGATIVE_BINOMIAL, ZETA, POISSON, DEGENERATE, DISCRETE_UNIFORM)

_LOG_ZERO = -math.inf
_NO_CLUSTERS = (np.empty(0), np.empty(0, dtype=np.int64))


class DistributionError(ValueError):
    """Raised for invalid distribution parameters."""


def _require_duration(k: int) -> int:
    k = int(k)
    if k < 1:
        raise ValueError(f"durations start at 1 second, got k={k}")
    return k


def _require_ccdf_point(k: int) -> int:
    k = int(k)
    if k < 0:
        raise ValueError(f"ccdf is defined for k >= 0, got k={k}")
    return k


@dataclass(frozen=True)
class DurationDistribution:
    """A discrete distribution over durations in whole seconds (support >= 1).

    Instances are immutable and safe to share across threads; sampling takes a
    caller-owned ``numpy.random.Generator``.
    """

    kind: str
    mean: float
    shape: float | None = None

    # -- interface -----------------------------------------------------------
    def log_pmf(self, k: int) -> float:
        raise NotImplementedError

    def pmf(self, k: int) -> float:
        """P(X = k) for k >= 1."""
        lp = self.log_pmf(k)
        return math.exp(lp) if lp > _LOG_ZERO else 0.0

    def ccdf(self, k: int) -> float:
        """P(X > k) for k >= 0."""
        raise NotImplementedError

    def log_ccdf(self, k: int) -> float:
        value = self.ccdf(k)
        return math.log(value) if value > 0.0 else _LOG_ZERO

    def inverse_hazard(self, k: int) -> float:
        """ccdf(k) / pmf(k); raises ZeroDivisionError outside the support."""
        k = _require_duration(k)
        lp = self.log_pmf(k)
        if lp == _LOG_ZERO:
            raise ZeroDivisionError(f"pmf({k}) = 0: outside the support")
        lc = self.log_ccdf(k)
        if lc == _LOG_ZERO:
            return 0.0
        return math.exp(lc - lp)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw durations, deterministic given the generator state.  Draws may
        depend on ``size`` (the negative binomial's do): one call for 2k
        values need not equal two calls for k."""
        raise NotImplementedError

    @property
    def variance(self) -> float:
        raise NotImplementedError


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Geometric(DurationDistribution):
    """Geometric on {1, 2, ...} with success probability p = 1/mean."""

    @property
    def p(self) -> float:
        return 1.0 / self.mean

    def log_pmf(self, k: int) -> float:
        k = _require_duration(k)
        return math.log(self.p) + (k - 1) * math.log1p(-self.p)

    def ccdf(self, k: int) -> float:
        k = _require_ccdf_point(k)
        return math.exp(self.log_ccdf(k))

    def log_ccdf(self, k: int) -> float:
        k = _require_ccdf_point(k)
        return k * math.log1p(-self.p)

    def inverse_hazard(self, k: int) -> float:
        # Memoryless: ccdf(k)/pmf(k) = (1-p)/p for every k.  Closed form keeps
        # the ratio exact where the individual factors would underflow.
        _require_duration(k)
        return (1.0 - self.p) / self.p

    def sample(self, rng, size=None):
        return rng.geometric(self.p, size=size)

    @property
    def inverts_exponentials(self) -> bool:
        """Whether numpy's geometric draws one standard exponential E per
        value and returns ceil(E / -log1p(-p)); for p >= 1/3 it searches."""
        return self.p < 1.0 / 3.0

    def from_exponentials(self, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The geometric draws of standard exponentials ``e`` (overwritten),
        into ``out`` (default: ``e``, as integral floats).  With p < 1/3,
        ``rng.standard_exponential(out=e)`` then this equals
        ``rng.geometric(p, e.shape)`` bit for bit."""
        np.divide(e, -math.log1p(-self.p), out=e)
        return np.ceil(e, out=e if out is None else out, casting="unsafe")

    @property
    def variance(self) -> float:
        return (1.0 - self.p) / self.p**2


@dataclass(frozen=True)
class NegativeBinomial(DurationDistribution):
    """Negative binomial (number-of-failures convention) shifted to {1, 2, ...}.

    The pre-shift variable counts failures before ``shape`` successes with
    success probability p = shape / (shape + (mean - 1)); its mean is
    ``mean - 1`` so the shifted mean is exactly ``mean``.
    """

    @property
    def pre_shift_mean(self) -> float:
        return self.mean - 1.0

    @property
    def p(self) -> float:
        return self.shape / (self.shape + self.pre_shift_mean)

    def log_pmf(self, k: int) -> float:
        k = _require_duration(k)
        n, p = self.shape, self.p
        j = k - 1  # pre-shift count
        return float(
            sp.gammaln(j + n)
            - sp.gammaln(n)
            - sp.gammaln(j + 1)
            + n * math.log(p)
            + j * math.log1p(-p)
        )

    def ccdf(self, k: int) -> float:
        k = _require_ccdf_point(k)
        if k == 0:
            return 1.0
        # P(X > k) = P(pre-shift > k-1) = I_{1-p}(k, n)
        return float(regularized_incomplete_beta(k, self.shape, 1.0 - self.p))

    @functools.cached_property
    def cluster_rate(self) -> float:
        """-n ln p, the Poisson rate of clusters per draw."""
        return self.shape * math.log1p(self.pre_shift_mean / self.shape)

    @property
    def draws_clusters(self) -> bool:
        """Whether an int-size ``sample`` takes the cluster path."""
        return self.cluster_rate <= 1.0

    def sample(self, rng, size=None):
        """Cluster draws for an int size when -n ln p <= 1 (module docstring),
        as ``draw_clusters`` then ``add_clusters``."""
        if not isinstance(size, (int, np.integer)) or not self.draws_clusters:
            return rng.negative_binomial(self.shape, self.p, size=size) + 1
        draws = np.ones((1, size), dtype=np.int64)
        self.add_clusters(draws, 0, *self.draw_clusters(rng, size))
        return draws[0]

    def draw_clusters(self, rng, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Step one of the cluster path for ``size`` draws, the generator
        calls: a Poisson(-n ln p * size) cluster count, then each cluster's
        slot uniform and its Logarithmic(1 - p) length."""
        clusters = rng.poisson(self.cluster_rate * size)
        if not clusters:
            return _NO_CLUSTERS
        return rng.random(clusters), rng.logseries(1.0 - self.p, clusters)

    @staticmethod
    def add_clusters(draws, rows, uniforms, lengths) -> None:
        """Step two: add each cluster's length to its slot, row ``rows`` and
        column floor(U * size) of ``draws`` (one call of ``size`` draws per
        row, each filled with 1).  The slot is exactly uniform when size
        divides 2**53 (the schedule's 256), else off by at most size / 2**53
        relative; rng.integers, exact for any size, costs more than the rest
        of a 256-draw call."""
        if len(lengths):
            slots = (uniforms * draws.shape[1]).astype(np.intp)
            np.add.at(draws, (rows, slots), lengths)

    @property
    def variance(self) -> float:
        mu = self.pre_shift_mean
        return mu * (1.0 + mu / self.shape)


@dataclass(frozen=True)
class Zeta(DurationDistribution):
    """Zeta (Zipf) on {1, 2, ...}: pmf(k) = k^-s / zeta(s), s solved from mean."""

    exponent: float = 0.0

    def log_pmf(self, k: int) -> float:
        k = _require_duration(k)
        return -self.exponent * math.log(k) - math.log(self._zeta_s)

    @property
    def _zeta_s(self) -> float:
        return float(sp.zeta(self.exponent))

    def ccdf(self, k: int) -> float:
        k = _require_ccdf_point(k)
        if k == 0:
            return 1.0
        # P(X > k) = zeta(s, k+1) / zeta(s) via the Hurwitz zeta tail.
        ratio = float(sp.zeta(self.exponent, k + 1)) / self._zeta_s
        return min(1.0, max(0.0, ratio))

    def sample(self, rng, size=None):
        return rng.zipf(self.exponent, size=size)

    @property
    def variance(self) -> float:
        if self.exponent <= 3.0:
            return math.inf
        second_moment = float(sp.zeta(self.exponent - 2)) / self._zeta_s
        return second_moment - self.mean**2


@dataclass(frozen=True)
class ShiftedPoisson(DurationDistribution):
    """Poisson with rate mean-1, shifted to {1, 2, ...}."""

    @property
    def rate(self) -> float:
        return self.mean - 1.0

    def log_pmf(self, k: int) -> float:
        k = _require_duration(k)
        j = k - 1
        lam = self.rate
        if lam == 0.0:
            return 0.0 if j == 0 else _LOG_ZERO
        return float(-lam + j * math.log(lam) - sp.gammaln(j + 1))

    def ccdf(self, k: int) -> float:
        k = _require_ccdf_point(k)
        if k == 0:
            return 1.0
        # P(X > k) = P(Poisson(rate) > k-1) = regularized lower gamma(k, rate)
        return float(sp.gammainc(k, self.rate))

    def sample(self, rng, size=None):
        return rng.poisson(self.rate, size=size) + 1

    @property
    def variance(self) -> float:
        return self.rate


@dataclass(frozen=True)
class Degenerate(DurationDistribution):
    """Point mass at an integer duration."""

    @property
    def point(self) -> int:
        return round(self.mean)

    def log_pmf(self, k: int) -> float:
        k = _require_duration(k)
        return 0.0 if k == self.point else _LOG_ZERO

    def ccdf(self, k: int) -> float:
        k = _require_ccdf_point(k)
        return 1.0 if k < self.point else 0.0

    def sample(self, rng, size=None):
        if size is None:
            return self.point
        return np.full(size, self.point, dtype=np.int64)

    @property
    def variance(self) -> float:
        return 0.0


@dataclass(frozen=True)
class DiscreteUniform(DurationDistribution):
    """Uniform on {1, ..., 2*mean - 1}; the support size makes the mean exact."""

    @property
    def upper(self) -> int:
        return round(2.0 * self.mean - 1.0)

    def log_pmf(self, k: int) -> float:
        k = _require_duration(k)
        return -math.log(self.upper) if k <= self.upper else _LOG_ZERO

    def ccdf(self, k: int) -> float:
        k = _require_ccdf_point(k)
        if k >= self.upper:
            return 0.0
        return (self.upper - k) / self.upper

    def sample(self, rng, size=None):
        return rng.integers(1, self.upper + 1, size=size)

    @property
    def variance(self) -> float:
        return (self.upper**2 - 1.0) / 12.0


# ---------------------------------------------------------------------------


def _solve_zeta_exponent(mean: float) -> float:
    """Find s > 2 with zeta(s-1)/zeta(s) == mean, by bisection."""

    def mean_of(s: float) -> float:
        return float(sp.zeta(s - 1)) / float(sp.zeta(s))

    lo, hi = 2.0 + 1e-12, 60.0
    if not mean_of(lo) >= mean >= mean_of(hi):
        raise DistributionError(
            f"no zeta exponent s > 2 yields mean {mean}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_of(mid) > mean:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def make_distribution(
    kind: str, mean: float, shape: float | None = None
) -> DurationDistribution:
    """Build a duration distribution with the given analytic mean (seconds).

    ``shape`` is required for (and only accepted by) the negative binomial.
    Support-shifted kinds (negative-binomial, poisson) get pre-shift mean
    ``mean - 1`` so the shifted mean is exact.
    """
    if kind not in KINDS:
        raise DistributionError(f"unknown distribution kind {kind!r}")
    mean = float(mean)
    if not mean > 1.0:
        raise DistributionError(f"mean must exceed 1 second, got {mean}")
    if kind != NEGATIVE_BINOMIAL and shape is not None:
        raise DistributionError(f"{kind} takes no shape parameter")

    if kind == GEOMETRIC:
        return Geometric(kind=kind, mean=mean)
    if kind == NEGATIVE_BINOMIAL:
        if shape is None or not shape > 0.0:
            raise DistributionError(
                f"negative-binomial requires a positive shape, got {shape}"
            )
        return NegativeBinomial(kind=kind, mean=mean, shape=float(shape))
    if kind == ZETA:
        return Zeta(kind=kind, mean=mean, exponent=_solve_zeta_exponent(mean))
    if kind == POISSON:
        return ShiftedPoisson(kind=kind, mean=mean)
    if kind == DEGENERATE:
        if abs(mean - round(mean)) > 1e-9:
            raise DistributionError(
                f"degenerate mean must be a whole number of seconds, got {mean}"
            )
        return Degenerate(kind=kind, mean=mean)
    # discrete uniform on {1..2*mean-1}
    upper = 2.0 * mean - 1.0
    if abs(upper - round(upper)) > 1e-9 or round(upper) < 1:
        raise DistributionError(
            f"discrete-uniform needs 2*mean-1 to be a positive integer, got mean={mean}"
        )
    return DiscreteUniform(kind=kind, mean=mean)
