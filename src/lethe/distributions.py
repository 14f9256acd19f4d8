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

Each law writes its tail and log-pmf once, ``_tail`` and ``_log_pmf`` over an
int64 array, and the base class checks the points.  ``inverse_hazard_array``
is their quotient in log space; each scalar (``ccdf``, ``pmf``,
``inverse_hazard``) is its array call at one point; and a curve or table over
a grid is one call: the negative binomial's tail is one ``betainc`` call, say.
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

_NO_CLUSTERS = (np.empty(0), np.empty(0, dtype=np.int64))


class DistributionError(ValueError):
    """Raised for invalid distribution parameters."""


@dataclass(frozen=True)
class DurationDistribution:
    """A discrete distribution over durations in whole seconds (support >= 1).

    Instances are immutable and safe to share across threads; sampling takes a
    caller-owned ``numpy.random.Generator``.
    """

    kind: str
    mean: float
    shape: float | None = None

    # -- interface: each law gives _log_pmf and _tail over an int64 array, and
    # sample; the checks and the k = 0 case are made here, once -------------
    def log_pmf_array(self, ks) -> np.ndarray:
        """log P(X = k) at each k >= 1 of a 1-d int array."""
        ks = np.asarray(ks, dtype=np.int64)
        if ks.min(initial=1) < 1:
            raise ValueError(f"durations start at 1 second, got k={ks.min()}")
        return self._log_pmf(ks)

    def pmf(self, k: int) -> float:
        """P(X = k) for k >= 1."""
        return math.exp(self.log_pmf_array([k])[0])

    def ccdf_array(self, ks) -> np.ndarray:
        """P(X > k) at each k >= 0 of a 1-d int array."""
        ks = np.asarray(ks, dtype=np.int64)
        if ks.min(initial=0) < 0:
            raise ValueError(f"ccdf is defined for k >= 0, got k={ks.min()}")
        return np.where(ks == 0, 1.0, self._tail(ks))

    def ccdf(self, k: int) -> float:
        """P(X > k) for k >= 0: ``ccdf_array`` at one point."""
        return float(self.ccdf_array([k])[0])

    def inverse_hazard_array(self, ks) -> np.ndarray:
        """ccdf(k) / pmf(k) at each k >= 1 of a 1-d int array, in log space:
        inf outside the support and where the ratio passes the float range."""
        log_pmf = self.log_pmf_array(ks)
        with np.errstate(divide="ignore", over="ignore"):  # log 0; exp past the range
            return np.exp(np.subtract(np.log(self.ccdf_array(ks)), log_pmf,
                                      out=np.full(log_pmf.shape, np.inf), where=log_pmf > -np.inf))

    def inverse_hazard(self, k: int) -> float:
        """``inverse_hazard_array`` at one point; raises ZeroDivisionError
        outside the support."""
        if self.log_pmf_array([k])[0] == -math.inf:
            raise ZeroDivisionError(f"pmf({k}) = 0: outside the support")
        return float(self.inverse_hazard_array([k])[0])

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw durations, deterministic given the generator state.  Draws may
        depend on ``size`` (the negative binomial's do): one call for 2k
        values need not equal two calls for k."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Each law binds ``ccdf = DurationDistribution.ccdf`` in its own namespace,
# though it inherits it anyway: perfbench/tracing.py wraps ``ccdf`` by class.


@dataclass(frozen=True)
class Geometric(DurationDistribution):
    """Geometric on {1, 2, ...} with success probability p = 1/mean."""

    @property
    def p(self) -> float:
        return 1.0 / self.mean

    ccdf = DurationDistribution.ccdf

    def _log_pmf(self, ks: np.ndarray) -> np.ndarray:
        return math.log(self.p) + (ks - 1) * math.log1p(-self.p)

    def _tail(self, ks: np.ndarray) -> np.ndarray:
        return np.exp(ks * math.log1p(-self.p))

    def inverse_hazard_array(self, ks) -> np.ndarray:
        # Memoryless: ccdf(k)/pmf(k) = (1-p)/p for every k.  Closed form keeps
        # the ratio exact where the individual factors would underflow.
        return np.full_like(self.log_pmf_array(ks), (1.0 - self.p) / self.p)

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

    @functools.cached_property
    def p(self) -> float:
        return _success_probability(self.mean, self.shape)

    ccdf = DurationDistribution.ccdf

    def _log_pmf(self, ks: np.ndarray) -> np.ndarray:
        n, p = self.shape, self.p
        js = ks - 1  # pre-shift counts
        return (
            sp.gammaln(js + n) - sp.gammaln(n) - sp.gammaln(js + 1)
            + n * math.log(p) + js * math.log1p(-p)
        )

    def _tail(self, ks: np.ndarray) -> np.ndarray:
        return negative_binomial_tail(ks, self.mean, self.shape)

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


def _success_probability(mean: float, shape: float) -> float:
    return shape / (shape + (mean - 1.0))


def negative_binomial_tail(k, mean: float, shape: float):
    """P(X > k) for k >= 1 (an int or an int array) of the shifted negative
    binomial with this mean and shape: P(pre-shift > k - 1) = I_{1-p}(k, n).
    It is ``NegativeBinomial.ccdf`` without building a law, as the shape
    search needs it."""
    return regularized_incomplete_beta(k, shape, 1.0 - _success_probability(mean, shape))


@dataclass(frozen=True)
class Zeta(DurationDistribution):
    """Zeta (Zipf) on {1, 2, ...}: pmf(k) = k^-s / zeta(s), s solved from mean."""

    exponent: float = 0.0

    ccdf = DurationDistribution.ccdf

    def _log_pmf(self, ks: np.ndarray) -> np.ndarray:
        return -self.exponent * np.log(ks) - math.log(self._zeta_s)

    @property
    def _zeta_s(self) -> float:
        return float(sp.zeta(self.exponent))

    def _tail(self, ks: np.ndarray) -> np.ndarray:
        # P(X > k) = zeta(s, k+1) / zeta(s) via the Hurwitz zeta tail.
        return np.clip(sp.zeta(self.exponent, ks + 1) / self._zeta_s, 0.0, 1.0)

    def sample(self, rng, size=None):
        return rng.zipf(self.exponent, size=size)


@dataclass(frozen=True)
class ShiftedPoisson(DurationDistribution):
    """Poisson with rate mean-1, shifted to {1, 2, ...}."""

    @property
    def rate(self) -> float:
        return self.mean - 1.0

    ccdf = DurationDistribution.ccdf

    def _log_pmf(self, ks: np.ndarray) -> np.ndarray:
        js, lam = ks - 1, self.rate
        return -lam + js * math.log(lam) - sp.gammaln(js + 1)

    def _tail(self, ks: np.ndarray) -> np.ndarray:
        # P(X > k) = P(Poisson(rate) > k-1) = regularized lower gamma(k, rate)
        return sp.gammainc(ks, self.rate)

    def sample(self, rng, size=None):
        return rng.poisson(self.rate, size=size) + 1


@dataclass(frozen=True)
class Degenerate(DurationDistribution):
    """Point mass at an integer duration."""

    @property
    def point(self) -> int:
        return round(self.mean)

    ccdf = DurationDistribution.ccdf

    def _log_pmf(self, ks: np.ndarray) -> np.ndarray:
        return np.where(ks == self.point, 0.0, -np.inf)

    def _tail(self, ks: np.ndarray) -> np.ndarray:
        return np.where(ks < self.point, 1.0, 0.0)

    def sample(self, rng, size=None):
        if size is None:
            return self.point
        return np.full(size, self.point, dtype=np.int64)


@dataclass(frozen=True)
class DiscreteUniform(DurationDistribution):
    """Uniform on {1, ..., 2*mean - 1}; the support size makes the mean exact."""

    @property
    def upper(self) -> int:
        return round(2.0 * self.mean - 1.0)

    ccdf = DurationDistribution.ccdf

    def _log_pmf(self, ks: np.ndarray) -> np.ndarray:
        return np.where(ks <= self.upper, -math.log(self.upper), -np.inf)

    def _tail(self, ks: np.ndarray) -> np.ndarray:
        return np.maximum(self.upper - ks, 0) / self.upper

    def sample(self, rng, size=None):
        return rng.integers(1, self.upper + 1, size=size)


# ---------------------------------------------------------------------------


def _solve_zeta_exponent(mean: float) -> float:
    """Find s > 2 with zeta(s-1)/zeta(s) == mean, by Brent's method."""
    from scipy.optimize import brentq  # ~0.2 s to import; only zeta needs it

    def excess(s: float) -> float:
        return float(sp.zeta(s - 1)) / float(sp.zeta(s)) - mean

    lo, hi = 2.0 + 1e-12, 60.0
    if not excess(lo) >= 0.0 >= excess(hi):
        raise DistributionError(
            f"no zeta exponent s > 2 yields mean {mean}"
        )
    # the default xtol, 2e-12, leaves the root some 300 ulp off
    return brentq(excess, lo, hi, xtol=1e-15)


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
    if not 1.0 < mean < math.inf:
        raise DistributionError(f"mean must exceed 1 second and be finite, got {mean}")
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
