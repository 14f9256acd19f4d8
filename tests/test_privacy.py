"""Likelihood ratio, availability and curve generators."""

import math

import pytest

from lethe.distributions import make_distribution
from lethe.privacy import availability, inverse_ccdf_curve, inverse_hazard_curve, lr_curve

from conftest import SHAPE_TABLE
from oracles import ObservationSummary, likelihood_ratio

HOUR = 3600
DAY = 86400


def obs(last_up: int, down_elapsed: int) -> ObservationSummary:
    return ObservationSummary(last_up=last_up, down_elapsed=down_elapsed)


# ---------------------------------------------------------------------------
# likelihood ratio


def test_lr_at_first_down_second_equals_mean_up():
    # geometric up: constant inverse hazard 1/p - 1, so at dt_d = 1 the LR is
    # exactly the mean up time for any observed up duration
    up = make_distribution("geometric", 9)
    down = make_distribution("geometric", 5)
    for dt_u in (1, 7, 1000):
        result = likelihood_ratio(up, down, obs(dt_u, 1))
        assert result.value == 9.0
        assert not result.certain


def test_strawman_degenerate_certain_right_after_support():
    up = make_distribution("degenerate", 9 * HOUR)
    down = make_distribution("degenerate", HOUR)
    at_support_end = likelihood_ratio(up, down, obs(9 * HOUR, 3600))
    beyond = likelihood_ratio(up, down, obs(9 * HOUR, 3601))
    assert math.isfinite(at_support_end.value)
    assert beyond.value == math.inf
    assert not beyond.certain  # infinite via the down CCDF, not the up pmf


def test_strawman_uniform_certain_after_two_hours():
    up = make_distribution("discrete-uniform", 9 * HOUR)
    down = make_distribution("discrete-uniform", HOUR)  # support {1..7199}
    assert math.isfinite(likelihood_ratio(up, down, obs(HOUR, 7199)).value)
    assert likelihood_ratio(up, down, obs(HOUR, 7200)).value == math.inf


def test_impossible_up_duration_is_certain():
    up = make_distribution("degenerate", 9 * HOUR)
    down = make_distribution("degenerate", HOUR)
    result = likelihood_ratio(up, down, obs(5 * HOUR, 10))
    assert result.certain
    assert result.value == math.inf


def test_lr_composition_geometric_negbin():
    up = make_distribution("geometric", 32400)
    down = make_distribution("negative-binomial", 3600, shape=1e-4)
    dt_d = 180 * DAY
    result = likelihood_ratio(up, down, obs(123, dt_d))
    assert result.value == pytest.approx(32400.0 / down.ccdf(dt_d - 1), rel=1e-12)


def test_lr_decomposition_matches_component_probabilities():
    # LR must equal the quotient of the two observation likelihoods computed
    # independently: (ccdf_up + pmf_up) / (pmf_up * ccdf_down)
    up = make_distribution("negative-binomial", 32400, shape=0.15)
    down = make_distribution("negative-binomial", 3600, shape=6e-4)
    for dt_u, dt_d in [(1, 1), (3600, 7200), (50000, DAY), (200000, 30 * DAY)]:
        numerator = up.ccdf(dt_u) + up.pmf(dt_u)
        denominator = up.pmf(dt_u) * down.ccdf(dt_d - 1)
        expected = numerator / denominator
        got = likelihood_ratio(up, down, obs(dt_u, dt_d)).value
        assert got == pytest.approx(expected, rel=1e-9)


def test_lr_monotone_in_down_elapsed():
    up = make_distribution("geometric", 32400)
    down = make_distribution("negative-binomial", 3600, shape=6e-4)
    values = [
        likelihood_ratio(up, down, obs(100, dt)).value
        for dt in (1, 60, 3600, DAY, 30 * DAY, 180 * DAY)
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_lr_invariant_to_last_up_for_geometric():
    up = make_distribution("geometric", 32400)
    down = make_distribution("negative-binomial", 3600, shape=6e-4)
    values = {likelihood_ratio(up, down, obs(dt_u, 3600)).value for dt_u in (1, 10**3, 10**6)}
    assert len(values) == 1


def test_lr_lower_bound():
    up = make_distribution("poisson", 32400)
    down = make_distribution("zeta", 3600)
    for dt_u, dt_d in [(30000, 1), (32400, 3600), (40000, DAY)]:
        result = likelihood_ratio(up, down, obs(dt_u, dt_d))
        assert result.value >= up.inverse_hazard(dt_u) + 1.0 >= 1.0


def test_observation_summary_validation():
    with pytest.raises(ValueError):
        ObservationSummary(last_up=0, down_elapsed=1)
    with pytest.raises(ValueError):
        ObservationSummary(last_up=1, down_elapsed=0)


# ---------------------------------------------------------------------------
# availability


def test_availability_examples():
    assert availability(9 * HOUR, HOUR) == pytest.approx(0.9, abs=1e-12)
    assert availability(5, 5) == 0.5
    assert availability(19 * HOUR, HOUR) == pytest.approx(0.95, abs=1e-12)
    with pytest.raises(ValueError):
        availability(0, 5)


# ---------------------------------------------------------------------------
# curves


def test_geometric_hazard_curve_constant():
    d = make_distribution("geometric", 9 * HOUR)
    points = inverse_hazard_curve(d, t_max=24 * HOUR, step=600)
    assert {v for _, v in points} == {32399.0}
    assert points[0][0] == 600 and points[-1][0] == 24 * HOUR


def test_degenerate_hazard_curve_infinite_past_point():
    d = make_distribution("degenerate", HOUR)
    points = dict(inverse_hazard_curve(d, t_max=2 * HOUR, step=600))
    assert points[HOUR] == 0.0  # at the point mass: ccdf is 0
    assert points[HOUR + 600] == math.inf


@pytest.mark.parametrize("kind,shape", [
    ("geometric", None),
    ("negative-binomial", 6e-4),
    ("zeta", None),
    ("poisson", None),
    ("degenerate", None),
    ("discrete-uniform", None),
])
def test_hazard_curve_equals_scalar_inverse_hazard(kind, shape):
    """The curve, one array call, equals the scalar inverse hazard at every
    second of 1..7300 bit for bit, a ZeroDivisionError (off the support)
    read as inf.  The grid crosses the degenerate point (3600 s), the
    uniform's last point (7199 s) and the edge of poisson's band (up to
    1597 s) where the ratio passes the float range."""
    d = make_distribution(kind, HOUR, shape=shape)

    def scalar(t):
        try:
            return d.inverse_hazard(t)
        except ZeroDivisionError:
            return math.inf

    points = inverse_hazard_curve(d, t_max=7300, step=1)
    assert points == [(t, scalar(t)) for t in range(1, 7301)]
    edges = {"degenerate": (3600, 3601), "discrete-uniform": (7199, 7200), "poisson": (1598, 1597)}
    if kind in edges:
        finite, infinite = edges[kind]
        assert math.isfinite(points[finite - 1][1]) and points[infinite - 1][1] == math.inf


def test_negbin_hazard_curve_varies():
    d = make_distribution("negative-binomial", 9 * HOUR, shape=0.15)
    values = [v for _, v in inverse_hazard_curve(d, 24 * HOUR, HOUR)]
    assert max(values) > min(values) * 1.5


def test_poisson_inverse_ccdf_explodes_past_mean():
    d = make_distribution("poisson", HOUR)
    points = dict(inverse_ccdf_curve(d, 2 * HOUR, 600))
    assert points[600] < 1.5  # well below the mean: ccdf near 1
    assert points[2 * HOUR] > 1e6 or points[2 * HOUR] == math.inf


def test_inverse_ccdf_at_one_is_one():
    for kind, shape in [("geometric", None), ("negative-binomial", 6e-4), ("zeta", None)]:
        d = make_distribution(kind, HOUR, shape=shape)
        assert inverse_ccdf_curve(d, 1, 1)[0] == (1, 1.0)


def test_geometric_zeta_inverse_ccdf_cross():
    geom = make_distribution("geometric", HOUR)
    zeta = make_distribution("zeta", HOUR)
    geo = dict(inverse_ccdf_curve(geom, 24 * HOUR, 300))
    zet = dict(inverse_ccdf_curve(zeta, 24 * HOUR, 300))
    assert geo[300] < zet[300]  # geometric wins early
    assert zet[24 * HOUR] < geo[24 * HOUR]  # zeta wins late


def test_lr_curve_series_non_decreasing_and_table_shape_wins():
    up = make_distribution("geometric", 9 * HOUR)
    downs = [
        make_distribution("negative-binomial", HOUR, shape=n)
        for n in (6e-4, 3e-4, 1e-4)
    ]
    series = lr_curve(up, downs, t_max=180 * DAY, step=10 * DAY)
    for _, points in series:
        values = [v for _, v in points]
        assert all(a <= b for a, b in zip(values, values[1:]))
    # at 30 days the 30-day-tuned shape has the lowest LR; at 180 days the
    # 180-day-tuned one does
    at_30 = {d.shape: dict(p)[30 * DAY] for d, p in series}
    at_180 = {d.shape: dict(p)[180 * DAY] for d, p in series}
    assert min(at_30, key=at_30.get) == 6e-4
    assert min(at_180, key=at_180.get) == 1e-4


def test_lr_curve_negbin_below_zeta():
    up = make_distribution("geometric", 9 * HOUR)
    downs = [make_distribution("zeta", HOUR)] + [
        make_distribution("negative-binomial", HOUR, shape=n)
        for n in SHAPE_TABLE.values()
    ]
    series = lr_curve(up, downs, t_max=180 * DAY, step=15 * DAY)
    zeta_points = dict(series[0][1])
    for dist, points in series[1:]:
        for t, v in points:
            if t >= 30 * DAY:
                assert v < zeta_points[t], (dist.shape, t)
