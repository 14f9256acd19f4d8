"""Mean-up selection and shape-parameter optimization."""

import pytest

from lethe.distributions import make_distribution
from lethe.privacy import availability
from lethe.tuning import (
    TuningError,
    TuningSpec,
    build_mechanism,
    mean_up_for_availability,
    optimal_shape,
)

from conftest import SHAPE_TABLE

HOUR = 3600
DAY = 86400


def test_mean_up_examples():
    assert mean_up_for_availability(0.90, HOUR) == pytest.approx(9 * HOUR, abs=1e-6)
    assert mean_up_for_availability(0.85, HOUR) == pytest.approx(20400, abs=1e-6)
    assert round(mean_up_for_availability(0.85, HOUR) / HOUR, 1) == 5.7
    assert mean_up_for_availability(0.5, 1234.0) == pytest.approx(1234.0, abs=1e-9)
    with pytest.raises(ValueError):
        mean_up_for_availability(1.0, HOUR)
    with pytest.raises(ValueError):
        mean_up_for_availability(0.0, HOUR)


def test_optimal_shape_reproduces_reference_column():
    previous = None
    products = []
    for days, expected in SHAPE_TABLE.items():
        n = optimal_shape(HOUR, days * DAY)
        assert 0.5 * expected <= n <= 1.5 * expected, days
        if previous is not None:
            assert n < previous
        previous = n
        products.append(n * days * DAY)
    assert max(products) <= 1.25 * min(products)


def test_optimal_shape_local_optimality():
    # the returned shape must beat doubling and halving (direct CCDF oracle)
    for days in (30, 180):
        theta = days * DAY
        n = optimal_shape(HOUR, theta)

        def ccdf_at(shape):
            return make_distribution("negative-binomial", HOUR, shape=shape).ccdf(
                int(theta) - 1
            )

        best = ccdf_at(n)
        assert best >= ccdf_at(2 * n)
        assert best >= ccdf_at(n / 2)


def test_optimal_shape_rejects_monotone_bracket():
    # a threshold barely above the mean pushes the optimum out of the bracket
    with pytest.raises(TuningError):
        optimal_shape(HOUR, HOUR + 1)


def test_optimal_shape_requires_theta_above_mean():
    with pytest.raises(TuningError):
        optimal_shape(HOUR, HOUR)


def test_tuning_spec_validation():
    with pytest.raises(ValueError):
        TuningSpec(1.2, HOUR, 30 * DAY)
    with pytest.raises(ValueError):
        TuningSpec(0.9, 0.0, 30 * DAY)
    with pytest.raises(ValueError):
        TuningSpec(0.9, HOUR, HOUR)
    with pytest.raises(ValueError):
        TuningSpec(0.9, HOUR, float("inf"))


def test_build_mechanism_examples():
    up, down = build_mechanism(TuningSpec(0.90, HOUR, 30 * DAY))
    assert up.kind == "geometric"
    assert up.mean == pytest.approx(9 * HOUR, abs=1e-9)
    assert down.kind == "negative-binomial"
    assert down.mean == HOUR
    assert down.shape == pytest.approx(6e-4, rel=0.5)

    up2, down2 = build_mechanism(TuningSpec(0.95, HOUR, 90 * DAY))
    assert up2.mean == pytest.approx(19 * HOUR, abs=1e-9)
    assert down2.shape == pytest.approx(2e-4, rel=0.5)


def test_build_mechanism_availability_round_trip():
    for target in (0.85, 0.90, 0.95):
        up, down = build_mechanism(TuningSpec(target, HOUR, 60 * DAY))
        assert availability(up.mean, down.mean) == pytest.approx(target, abs=1e-9)


# Tuned shapes by theta* in days, as float.hex(): every store schedule
# depends on them, so the search must keep them bit for bit.
TUNED_SHAPES = {
    30: "0x1.3ce7f1b42e356p-11", 60: "0x1.3cbc9a60087e6p-12", 90: "0x1.a6362442d1a09p-13",
    120: "0x1.3ca0713f6f8a6p-13", 150: "0x1.fa9a1645c6ab3p-14", 180: "0x1.a61c6e63d046dp-14",
}


def test_tuned_shapes_are_pinned_bit_for_bit():
    """The paper grid's mechanisms (availability does not move the shape) and
    the `store serve` defaults: --availability 0.9, --mean-down-seconds 3600,
    --theta-days 30."""
    for target in (0.85, 0.90, 0.95):
        for days, shape in TUNED_SHAPES.items():
            _, down = build_mechanism(TuningSpec(target, 3600.0, days * DAY))
            assert down.shape.hex() == shape, (target, days)
    _, down = build_mechanism(TuningSpec(0.9, 3600.0, 30.0 * DAY))
    assert down.shape.hex() == TUNED_SHAPES[30]
    assert optimal_shape(HOUR, 30 * DAY).hex() == TUNED_SHAPES[30]  # an int mean too


def test_optimal_shape_refuses_a_mean_no_law_takes():
    with pytest.raises(ValueError):
        optimal_shape(1.0, 30 * DAY)
