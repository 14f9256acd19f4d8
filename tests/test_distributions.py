"""Duration distributions: frozen examples, consistency properties, samplers."""

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chisquare

from lethe.adversary import DAY
from lethe.distributions import DistributionError, make_distribution
from lethe.tuning import TuningSpec, build_mechanism

from conftest import rng


# ---------------------------------------------------------------------------
# construction


def test_geometric_mean_9_gives_p_one_ninth():
    d = make_distribution("geometric", 9)
    assert d.p == pytest.approx(1 / 9, rel=1e-15)
    assert d.mean == 9


def _negbin_truncated_mean(d, j_max: int, exact_below: int = 1 << 16) -> float:
    """sum_j j * pmf(j) over the pre-shift support below j_max, pmf in log
    space: term by term below exact_below, then the smooth tail as the
    trapezoid rule in log j plus Euler-Maclaurin's half-weight end terms."""

    def terms(js):
        log_pmf = (
            gammaln(js + d.shape)
            - gammaln(d.shape)
            - gammaln(js + 1)
            + d.shape * math.log(d.p)
            + js * math.log1p(-d.p)
        )
        return js * np.exp(log_pmf)

    head = float(terms(np.arange(exact_below, dtype=np.float64)).sum())
    log_js = np.linspace(math.log(exact_below), math.log(j_max), 4097)
    tail = terms(np.exp(log_js))
    integral = float(np.trapezoid(tail * np.exp(log_js), log_js))  # dj = j d(log j)
    return head + integral + 0.5 * float(tail[0] + tail[-1])


def test_negative_binomial_internal_parameterization():
    d = make_distribution("negative-binomial", 3600, shape=6e-4)
    assert d.pre_shift_mean == 3599.0
    assert d.p == pytest.approx(6e-4 / (6e-4 + 3599.0), rel=1e-15)
    # truncated-summation oracle: p * j_max = 20, leaving tail mass < 1e-9
    oracle = _negbin_truncated_mean(d, int(20 / d.p))
    assert oracle == pytest.approx(3599.0, rel=1e-6)
    assert d.mean == 3600.0


def test_degenerate_point_mass():
    d = make_distribution("degenerate", 3600)
    assert d.pmf(3600) == 1.0
    assert d.pmf(10) == 0.0
    assert d.mean == 3600


def test_zeta_mean_solved():
    d = make_distribution("zeta", 3600)
    import scipy.special as sp

    implied = float(sp.zeta(d.exponent - 1)) / float(sp.zeta(d.exponent))
    assert implied == pytest.approx(3600.0, rel=1e-6)
    assert 2.0 < d.exponent < 2.001


def test_construction_errors():
    with pytest.raises(DistributionError):
        make_distribution("geometric", 0.5)
    with pytest.raises(DistributionError):
        make_distribution("geometric", -3)
    with pytest.raises(DistributionError):
        make_distribution("negative-binomial", 3600)  # shape required
    with pytest.raises(DistributionError):
        make_distribution("negative-binomial", 3600, shape=-1)
    with pytest.raises(DistributionError):
        make_distribution("geometric", 9, shape=0.5)  # shape not accepted
    with pytest.raises(DistributionError):
        make_distribution("not-a-kind", 9)
    with pytest.raises(DistributionError):
        make_distribution("degenerate", 9.5)
    with pytest.raises(DistributionError):
        make_distribution("geometric", math.inf)


def test_analytic_mean_exactness():
    cases = [
        ("geometric", 9.0, None),
        ("negative-binomial", 3600.0, 6e-4),
        ("poisson", 9.0, None),
        ("degenerate", 3600.0, None),
        ("discrete-uniform", 3600.0, None),
        ("zeta", 3600.0, None),
    ]
    for kind, mean, shape in cases:
        d = make_distribution(kind, mean, shape=shape)
        assert d.mean == pytest.approx(mean, rel=1e-6)


# ---------------------------------------------------------------------------
# pmf / ccdf examples


def test_geometric_pmf_ccdf():
    d = make_distribution("geometric", 9)
    assert d.pmf(1) == pytest.approx(1 / 9, rel=1e-12)
    assert d.ccdf(2) == pytest.approx((8 / 9) ** 2, rel=1e-12)


def test_negative_binomial_mass_at_one():
    d = make_distribution("negative-binomial", 3600, shape=6e-4)
    # shifted mass at 1 equals the unshifted mass at 0: p^n
    expected = math.exp(6e-4 * math.log(d.p))
    assert d.pmf(1) == pytest.approx(expected, rel=1e-12)
    assert d.pmf(1) == pytest.approx(0.99068, abs=5e-5)


def test_negative_binomial_ccdf_against_pmf_summation():
    d = make_distribution("negative-binomial", 3600, shape=6e-4)
    total = sum(d.pmf(k) for k in range(1, 61))
    oracle = 1.0 - total
    assert 0.004 <= d.ccdf(60) <= 0.010
    assert d.ccdf(60) == pytest.approx(oracle, rel=1e-6)


def test_negative_binomial_ccdf_deep_tail_against_summation():
    # tail values down to ~1e-10 must agree with brute-force summation;
    # ccdf(k) of the shifted variable is 1 - sum_{j=0}^{k-1} pmf_pre_shift(j)
    d = make_distribution("negative-binomial", 60, shape=0.05)
    for k in (10, 100, 1000, 5000, 20000):
        ccdf = d.ccdf(k)
        if ccdf < 1e-10:
            break
        js = np.arange(0, k)
        log_pmf = (
            gammaln(js + d.shape)
            - gammaln(d.shape)
            - gammaln(js + 1)
            + d.shape * math.log(d.p)
            + js * math.log1p(-d.p)
        )
        oracle = 1.0 - float(np.exp(log_pmf).sum())
        assert ccdf == pytest.approx(oracle, rel=1e-6), k


# ---------------------------------------------------------------------------
# negative-binomial CCDF against exact and high-precision oracles


def _nb_with_complement(x: float, n: float):
    """Negative binomial with shape n whose 1 - p is (close to) x."""
    return make_distribution("negative-binomial", 1.0 + n * x / (1.0 - x), shape=n)


def _mpmath_nb_ccdf(d, k: int) -> float:
    """I_{1-p}(k, n) at 70 digits, at the float 1 - p that ccdf evaluates."""
    with mp.workdps(70):
        return float(mp.betainc(k, d.shape, 0, 1 - d.p, regularized=True))


def test_nb_ccdf_binomial_summation_oracle():
    """Integer shape n: P(X > k) = P(Bin(k + n - 1, 1 - p) >= k), exact rationals."""
    random.seed(4)
    for _ in range(25):
        n = random.randint(1, 30)
        k = random.randint(1, 40)
        p = random.randint(1, 99) / 100
        d = make_distribution("negative-binomial", 1.0 + n * (1 - p) / p, shape=n)
        x = Fraction(1 - d.p)
        trials = k + n - 1
        expected = sum(
            Fraction(math.comb(trials, j)) * x**j * (1 - x) ** (trials - j)
            for j in range(k, trials + 1)
        )
        assert d.ccdf(k) == pytest.approx(float(expected), rel=1e-12, abs=1e-300)


# (1 - p, k, n): thresholds up to 1e8 s with shapes down to 1e-5
EXTREME_GRID = [
    (0.25, 2.0, 3.0),
    (0.9, 5.0, 0.5),
    (1 - 1.67e-7, 2.592e6, 6e-4),
    (1 - 2.78e-8, 1.5552e7, 1e-4),
    (0.999999999, 1e8, 1e-5),
    (1 - 1e-12, 1e8, 1e-5),
    (0.9999, 1e6, 1e-4),
    (0.97, 100.0, 0.3),
    (0.999, 1000.0, 2.0),
    (1 - 5e-8, 3.6e7, 1e-4),
    (1 - 1e-10, 1e7, 5e-4),
    (1 - 4e-7, 1e7, 3e-4),
]


@pytest.mark.parametrize("x,k,n", EXTREME_GRID)
def test_nb_ccdf_extreme_vs_mpmath(x, k, n):
    d = _nb_with_complement(x, n)
    assert d.ccdf(int(k)) == pytest.approx(
        _mpmath_nb_ccdf(d, int(k)), rel=1e-8, abs=1e-300
    )


@pytest.mark.parametrize("n", [6e-4, 1e-4])
def test_nb_ccdf_at_1e8_seconds_vs_mpmath(n):
    d = make_distribution("negative-binomial", 3600, shape=n)
    k = 10**8
    assert d.ccdf(k) == pytest.approx(_mpmath_nb_ccdf(d, k), rel=1e-12, abs=0)


def test_nb_ccdf_random_moderate_grid_vs_mpmath():
    random.seed(7)
    for _ in range(40):
        x = random.random()
        k = max(1, round(math.exp(random.uniform(-3, 6))))
        n = math.exp(random.uniform(-3, 6))
        d = _nb_with_complement(x, n)
        ref = _mpmath_nb_ccdf(d, k)
        assert d.ccdf(k) == pytest.approx(ref, rel=1e-8, abs=1e-200), (x, k, n)


def test_discrete_uniform_strawman_support():
    d = make_distribution("discrete-uniform", 3600)
    assert d.upper == 7199
    assert d.ccdf(7200) == 0.0  # certain about deletion after two hours
    assert d.ccdf(0) == 1.0
    assert d.pmf(1) == pytest.approx(1 / 7199, rel=1e-12)


def test_pmf_ccdf_argument_contracts():
    d = make_distribution("geometric", 9)
    with pytest.raises(ValueError):
        d.pmf(0)
    with pytest.raises(ValueError):
        d.pmf(-1)
    with pytest.raises(ValueError):
        d.ccdf(-1)
    assert d.ccdf(0) == 1.0


@pytest.mark.parametrize("kind,shape", [
    ("geometric", None),
    ("negative-binomial", 6e-4),
    ("negative-binomial", 1e-4),
    ("zeta", None),
    ("poisson", None),
    ("degenerate", None),
    ("discrete-uniform", None),
])
def test_ccdf_array_equals_scalar_ccdf(kind, shape):
    """The array ccdf equals the scalar one bit for bit: at 0, at the support
    edges (the degenerate point, the uniform's upper bound), in the deep
    tail near 1e8 s, and on a grid with repeats in any order."""
    d = make_distribution(kind, 3600, shape=shape)
    ks = np.array(
        [0, 1, 2, 0, 3599, 3600, 3601, 7198, 7199, 7200, 3600, 1,
         10**6, 10**8 - 1, 10**8, 10**8 + 1, 10**8]
        + list(np.round(np.geomspace(64, 4e8, 300)).astype(int)),
        dtype=np.int64,
    )
    values = d.ccdf_array(ks)
    assert values.dtype == np.float64
    assert values.tolist() == [d.ccdf(int(k)) for k in ks]
    assert d.ccdf_array(np.array([], dtype=np.int64)).tolist() == []
    with pytest.raises(ValueError):
        d.ccdf_array(np.array([5, -1, 7]))


# ---------------------------------------------------------------------------
# inverse hazard


def test_geometric_inverse_hazard_constant_to_a_million():
    d = make_distribution("geometric", 9)
    values = {d.inverse_hazard(k) for k in (1, 2, 10, 1000, 10**6)}
    assert values == {8.0}


def test_degenerate_inverse_hazard_zero_at_point():
    d = make_distribution("degenerate", 9)
    assert d.inverse_hazard(9) == 0.0
    with pytest.raises(ZeroDivisionError):
        d.inverse_hazard(5)


def test_poisson_inverse_hazard_strictly_decreasing():
    d = make_distribution("poisson", 9)
    values = [d.inverse_hazard(k) for k in range(1, 21)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_poisson_inverse_hazard_is_inf_past_the_float_range():
    # far below a 9 h mean, ccdf(k) / pmf(k) exceeds the largest float
    d = make_distribution("poisson", 9 * 3600)
    assert [d.inverse_hazard(k) for k in (1, 3600, 7200)] == [math.inf] * 3


def test_inverse_hazard_consistent_with_ratio():
    for kind, shape in [("geometric", None), ("negative-binomial", 6e-4), ("zeta", None)]:
        d = make_distribution(kind, 3600, shape=shape)
        for k in (1, 7, 100):
            assert d.inverse_hazard(k) == pytest.approx(
                d.ccdf(k) / d.pmf(k), rel=1e-9
            )


# ---------------------------------------------------------------------------
# telescoping property


@pytest.mark.parametrize("kind,shape", [
    ("geometric", None),
    ("negative-binomial", 6e-4),
    ("zeta", None),
    ("poisson", None),
    ("degenerate", None),
    ("discrete-uniform", None),
])
def test_ccdf_pmf_telescoping(kind, shape):
    d = make_distribution(kind, 3600, shape=shape)
    for k in (0, 1, 2, 10, 59, 3599, 3600, 7198, 10000):
        assert d.ccdf(k) - d.ccdf(k + 1) == pytest.approx(d.pmf(k + 1), abs=1e-9)


def test_pmf_partial_sums_monotone_toward_one():
    # light-tailed parameterizations converge within the scanned range;
    # the heavy-tailed shape only has to stay monotone and bounded
    cases = [
        ("geometric", 50, None, True),
        ("negative-binomial", 50, 0.5, True),
        ("poisson", 50, None, True),
        ("negative-binomial", 50, 6e-4, False),
    ]
    for kind, mean, shape, converges in cases:
        d = make_distribution(kind, mean, shape=shape)
        total = 0.0
        last = 0.0
        for k in range(1, 2000):
            total += d.pmf(k)
            assert total >= last
            assert total <= 1.0 + 1e-9
            last = total
        if converges:
            assert total == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# sampling


def _sample_kinds():
    return [
        ("geometric", 9.0, None),
        ("negative-binomial", 3600.0, 6e-4),
        ("negative-binomial", 9.0, 2.0),  # cluster rate 3.2 > 1: numpy's sampler
        ("poisson", 9.0, None),
        ("degenerate", 5.0, None),
        ("discrete-uniform", 9.0, None),
        ("zeta", 1.2, None),  # exponent ~3.6: finite variance
    ]


@pytest.mark.parametrize("kind,mean,shape", _sample_kinds())
def test_sample_mean_within_three_standard_errors(kind, mean, shape):
    d = make_distribution(kind, mean, shape=shape)
    n = 1_000_000
    draws = np.asarray(d.sample(rng("mean", kind), size=n), dtype=np.float64)
    assert draws.min() >= 1
    se = draws.std() / math.sqrt(n)  # the sample's own standard error
    assert abs(draws.mean() - mean) <= max(3 * se, 1e-9)


def test_samples_positive_integers_heavy_tail():
    d = make_distribution("zeta", 3600)  # infinite variance: positivity only
    draws = d.sample(rng("zeta-heavy"), size=10_000)
    assert np.asarray(draws).min() >= 1


def test_sampler_determinism():
    d = make_distribution("negative-binomial", 3600, shape=6e-4)
    a = d.sample(rng("det"), size=1000)
    b = d.sample(rng("det"), size=1000)
    assert np.array_equal(a, b)


def test_sampler_batching_equivalence():
    # the geometric value stream does not depend on how draws are batched (the
    # negative binomial's cluster path does; schedules always draw 256 at once)
    d = make_distribution("geometric", 9.0)
    whole = d.sample(rng("batch", "geometric"), size=1000)
    r = rng("batch", "geometric")
    parts = np.concatenate([np.atleast_1d(d.sample(r, size=100)) for _ in range(10)])
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("theta_days", [30, 180])
def test_tuned_nb_cluster_sampler_against_pmf_and_ccdf(theta_days):
    """2M draws, 256 per call as schedules draw them, against the analytic
    law.  At a 1 h mean the tuned down law depends on theta* alone, so this
    covers the down distribution of all three tuned availabilities."""
    downs = {
        build_mechanism(TuningSpec(a, 3600.0, theta_days * DAY))[1]
        for a in (0.85, 0.90, 0.95)
    }
    assert len(downs) == 1
    d = downs.pop()
    r = rng("nb-clusters", theta_days)
    draws = np.concatenate([d.sample(r, size=256) for _ in range(8192)])
    n = len(draws)
    assert draws.min() >= 1
    checks = [(draws == 1, d.pmf(1))] + [
        (draws > k, d.ccdf(k)) for k in (3600, DAY, 30 * DAY, 90 * DAY, 180 * DAY)
    ]
    for hits, p in checks:
        assert abs(hits.sum() - n * p) <= 3 * math.sqrt(n * p * (1 - p)), p


def test_nb_cluster_slots_uniform_within_a_call():
    """Every position of a 256-draw call has the same law: at cluster rate
    0.56 per draw, about 43% of each position's draws exceed 1."""
    d = make_distribution("negative-binomial", 3600.0, shape=0.05)
    r = rng("slots")
    draws = np.stack([d.sample(r, size=256) for _ in range(4096)])
    _, p = chisquare((draws > 1).sum(axis=0))
    assert p > 0.001, p


class _Recorder:
    """A generator proxy that records which sampling methods are called."""

    def __init__(self, gen):
        self.gen, self.calls = gen, set()

    def __getattr__(self, name):
        self.calls.add(name)
        return getattr(self.gen, name)


# cluster rate n * ln(1 + 3599 / n): 0.0094, 0.56, 1.05 and 15.0
@pytest.mark.parametrize("shape,size,clusters", [
    (6e-4, 256, True),
    (6e-4, None, False),
    (0.05, 10, True),
    (0.1, 10, False),
    (2.0, 256, False),
])
def test_nb_sampler_path_follows_cluster_rate(shape, size, clusters):
    d = make_distribution("negative-binomial", 3600.0, shape=shape)
    recorder = _Recorder(rng("path"))
    d.sample(recorder, size=size)
    assert ("poisson" in recorder.calls) == clusters
    assert ("negative_binomial" in recorder.calls) == (not clusters)


def test_degenerate_sample_any_seed():
    d = make_distribution("degenerate", 5)
    assert d.sample(rng("any")) == 5
    assert set(np.asarray(d.sample(rng("any2"), size=10))) == {5}


@pytest.mark.parametrize("kind,mean,shape", [
    ("geometric", 9.0, None),
    ("negative-binomial", 3600.0, 6e-4),
    ("poisson", 9.0, None),
    ("discrete-uniform", 9.0, None),
    ("zeta", 1.2, None),
])
def test_sampler_histogram_chi_square(kind, mean, shape):
    """Sampler matches the PMF over the 50 most probable outcomes."""
    d = make_distribution(kind, mean, shape=shape)
    n = 1_000_000
    draws = np.asarray(d.sample(rng("chi", kind), size=n))
    support = np.arange(1, 501)
    pmf = np.array([d.pmf(int(k)) for k in support])
    top = support[np.argsort(pmf)[::-1][:50]]
    observed = np.array([(draws == k).sum() for k in top], dtype=float)
    expected = np.array([d.pmf(int(k)) for k in top]) * n
    obs = np.append(observed, n - observed.sum())  # everything else
    exp = np.append(expected, n - expected.sum())
    keep = exp > 5
    _, p = chisquare(obs[keep], exp[keep] * obs[keep].sum() / exp[keep].sum())
    assert p > 0.001, (kind, p)
