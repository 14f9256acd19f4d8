"""Interaction traces and survival-of-interactions evaluation."""

import csv
import math

import numpy as np
import pytest

from lethe.distributions import make_distribution
from lethe.schedule import generate_schedule, schedule_key
from lethe.utility import (
    DEFAULT_DECAY_MEAN,
    TraceFormatError,
    TracePost,
    UtilityResult,
    evaluate_utility,
    generate_synthetic_trace,
    load_trace,
)

from conftest import rng, utility_within_3_sigma
from oracles import expected_utility

HOUR = 3600
DAY = 86400


# ---------------------------------------------------------------------------
# loading


def test_empty_file_is_empty_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("")
    assert load_trace(path) == ()
    path.write_text("post_key,creation_epoch_seconds,offset_seconds\n")
    trace = load_trace(path)
    assert trace == ()
    up = make_distribution("geometric", 9 * HOUR)
    down = make_distribution("negative-binomial", HOUR, shape=6e-4)
    result = evaluate_utility(trace, up, down, rng("empty"))
    assert result.utility is None  # "no interactions" marker
    assert result.total == 0


def test_single_row_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("post_key,creation_epoch_seconds,offset_seconds\nk,0,0\n")
    trace = load_trace(path)
    assert len(trace) == 1
    assert trace[0].creation_time == 0
    assert list(trace[0].offsets) == [0]


def test_round_trip(tmp_path):
    trace = generate_synthetic_trace(50, 3.0, rng=rng("rt"))
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["post_key", "creation_epoch_seconds", "offset_seconds"])
        for post in trace:
            writer.writerows([post.post_key, post.creation_time, int(o)] for o in post.offsets)
    loaded = load_trace(path)
    original = {p.post_key: (p.creation_time, list(p.offsets)) for p in trace if len(p.offsets)}
    reloaded = {p.post_key: (p.creation_time, list(p.offsets)) for p in loaded}
    assert original == reloaded


def test_malformed_rows_report_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "post_key,creation_epoch_seconds,offset_seconds\nk,0,5\nk,0,not-a-number\n"
    )
    with pytest.raises(TraceFormatError, match="bad.csv:3"):
        load_trace(path)
    path.write_text("post_key,creation_epoch_seconds,offset_seconds\nk,0,-5\n")
    with pytest.raises(TraceFormatError, match="negative offset"):
        load_trace(path)
    path.write_text("post_key,creation_epoch_seconds,offset_seconds\nk,0,5\nk,0\n")
    with pytest.raises(TraceFormatError, match="bad.csv:3: expected 3 columns, got 2"):
        load_trace(path)
    path.write_text("post_key,creation_epoch_seconds,offset_seconds\nk,0,5\n\nk,7,5\n")
    with pytest.raises(TraceFormatError, match="bad.csv:4: post k has conflicting creation"):
        load_trace(path)
    path.write_text("wrong,header,here\n")
    with pytest.raises(TraceFormatError, match="header"):
        load_trace(path)


def test_offsets_sorted_on_load(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(  # a blank row is skipped
        "post_key,creation_epoch_seconds,offset_seconds\nk,5,30\n\nk,5,10\nk,5,20\n"
    )
    trace = load_trace(path)
    assert list(trace[0].offsets) == [10, 20, 30]


# ---------------------------------------------------------------------------
# synthetic traces


def test_synthetic_offsets_match_first_hour_statistic():
    trace = generate_synthetic_trace(300_000, 4.0, rng=rng("hour"))
    offsets = np.concatenate([p.offsets for p in trace])
    assert len(offsets) > 1_000_000
    fraction = (offsets < HOUR).mean()
    expected = 1.0 - math.exp(-HOUR / DEFAULT_DECAY_MEAN)
    assert expected == pytest.approx(0.60, abs=0.001)
    assert fraction == pytest.approx(0.60, abs=0.01)


def test_synthetic_deterministic():
    a = generate_synthetic_trace(100, 2.0, rng=rng("det"))
    b = generate_synthetic_trace(100, 2.0, rng=rng("det"))
    assert all(
        np.array_equal(x.offsets, y.offsets) for x, y in zip(a, b)
    )


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic_trace(0, 1.0, rng=rng("bad"))
    with pytest.raises(ValueError):
        generate_synthetic_trace(10, -1.0, rng=rng("bad"))


# ---------------------------------------------------------------------------
# evaluation


def test_all_zero_offsets_fully_allowed(mechanism_90):
    up, down = mechanism_90
    posts = tuple(
        TracePost(f"p{i}", 0, np.zeros(5, dtype=np.int64)) for i in range(50)
    )
    result = evaluate_utility(posts, up, down, rng("zero"))
    assert result.utility == 1.0  # posts start in an up phase


def test_tiny_decay_effectively_at_creation(mechanism_90):
    up, down = mechanism_90
    trace = generate_synthetic_trace(2000, 3.0, decay_mean=1.0, rng=rng("tiny"))
    result = evaluate_utility(trace, up, down, rng("tiny-eval"))
    assert result.utility >= 0.999


def test_uniform_offsets_recover_availability(mechanism_90):
    up, down = mechanism_90
    r = rng("uniform")
    posts = tuple(
        TracePost(f"p{i}", 0, np.sort(r.integers(0, 10 * 365 * DAY, size=60)))
        for i in range(1500)
    )
    result = evaluate_utility(posts, up, down, rng("uniform-eval"))
    assert result.utility == pytest.approx(0.90, abs=0.005)


def test_front_loaded_beats_uniform(mechanism_90):
    up, down = mechanism_90
    front = generate_synthetic_trace(800, 5.0, decay_mean=60.0, rng=rng("front"))
    r = rng("uni2")
    uniform = tuple(
        TracePost(f"u{i}", 0, np.sort(r.integers(0, 365 * DAY, size=5))) for i in range(800)
    )
    u_front = evaluate_utility(front, up, down, rng("front-eval")).utility
    u_uniform = evaluate_utility(uniform, up, down, rng("uni2-eval")).utility
    assert u_front > u_uniform


def test_utility_independent_of_post_order(mechanism_90):
    """Each post's schedule is keyed by its post_key, not by its place in
    the trace, so reversing the posts leaves the result unchanged."""
    up, down = mechanism_90
    r = rng("order")
    trace = tuple(  # long uniform offsets: about one in ten missed
        TracePost(f"p{i}", int(r.integers(0, DAY)), np.sort(r.integers(0, 730 * DAY, size=20)))
        for i in range(200)
    )
    forward = evaluate_utility(trace, up, down, rng("order-eval"))
    assert forward.missed > 100
    backward = evaluate_utility(trace[::-1], up, down, rng("order-eval"))
    assert backward == forward


def test_utility_non_decreasing_in_availability():
    """The closed form rises strictly with availability, and each Monte
    Carlo draw sits within 3 sigma of its closed form."""
    from lethe.tuning import TuningSpec, build_mechanism

    trace = generate_synthetic_trace(3000, 4.0, rng=rng("mono"))
    closed = []
    for availability in (0.85, 0.90, 0.95):
        up, down = build_mechanism(TuningSpec(availability, 3600.0, 30 * DAY))
        closed.append(expected_utility(up, down))
        utility_within_3_sigma(trace, up, down, rng("mono-eval", availability), closed[-1])
    assert closed[0] < closed[1] < closed[2]


def _renewal_series_utility(up, down, decay_mean, span):
    """sum_t P(offset = t) P(up at t), with P(up at t) from the discrete
    renewal equation over cycle starts; the tail past span is below q^span."""
    q = math.exp(-1.0 / decay_mean)
    ks = np.arange(span + 1)
    f_up = np.array([0.0] + [up.pmf(k) for k in ks[1:]])
    f_down = np.array([0.0] + [down.pmf(k) for k in ks[1:]])
    f_cycle = np.convolve(f_up, f_down)[: span + 1]
    starts = np.zeros(span + 1)  # P(a cycle starts at t)
    starts[0] = 1.0
    for t in range(1, span + 1):
        starts[t] = f_cycle[1 : t + 1] @ starts[t - 1 :: -1]
    up_left = np.array([up.ccdf(k) for k in ks])  # P(U > k)
    p_up = np.convolve(starts, up_left)[: span + 1]
    return float(((1.0 - q) * q**ks) @ p_up)


@pytest.mark.parametrize("up_mean, down_mean, shape, decay_mean", [
    (9.0, 3.0, 0.5, 20.0),
    (5.0, 8.0, 2.0, 6.0),
    (30.0, 2.0, 0.05, 40.0),
])
def test_expected_utility_matches_renewal_series(up_mean, down_mean, shape, decay_mean):
    up = make_distribution("geometric", up_mean)
    down = make_distribution("negative-binomial", down_mean, shape=shape)
    series = _renewal_series_utility(up, down, decay_mean, span=int(40 * decay_mean))
    assert expected_utility(up, down, decay_mean) == pytest.approx(series, rel=1e-9)


def test_expected_utility_pgfs_at_tuned_shapes(mechanism_90):
    """The closed form at a deployed shape, with both generating functions
    summed directly from their pmfs."""
    from scipy.special import gammaln

    _, down = mechanism_90
    q = math.exp(-1.0 / DEFAULT_DECAY_MEAN)
    j = np.arange(0, 200_000, dtype=np.float64)  # pre-shift counts; q^j < 1e-22 past it
    n, p = down.shape, down.p
    log_pmf = gammaln(j + n) - gammaln(n) - gammaln(j + 1) + n * math.log(p) + j * math.log1p(-p)
    direct = q * float(np.exp(log_pmf + j * math.log(q)).sum())
    geometric = make_distribution("geometric", 9 * HOUR)
    up_direct = float((geometric.p * (1 - geometric.p) ** j * q ** (j + 1)).sum())
    closed = expected_utility(geometric, down)
    assert closed == pytest.approx((1 - up_direct) / (1 - up_direct * direct), rel=1e-12)
    with pytest.raises(ValueError):
        expected_utility(geometric, make_distribution("degenerate", HOUR))


def _utility_drawing_every_post(trace, up, down, generator):
    """Reference for evaluate_utility: every post with an interaction draws
    its schedule to its last one, and each interaction is looked up in it."""
    secret = generator.bytes(32)
    total = missed = 0
    for post in trace:
        if len(post.offsets):
            key = schedule_key(secret, post.post_key)
            toggles = generate_schedule(up, down, 0, int(post.offsets[-1]) + 1, key).toggles
            flips = np.searchsorted(toggles, post.offsets, side="right")
            missed += int(np.count_nonzero(flips & 1))
            total += len(post.offsets)
    return UtilityResult(allowed=total - missed, missed=missed)


@pytest.mark.parametrize(
    "up",
    [
        make_distribution("geometric", 2 * HOUR),  # inverted exponentials
        make_distribution("geometric", 2.0),  # p = 1/2: numpy's search
        make_distribution("negative-binomial", 2 * HOUR, shape=0.05),  # clusters
        make_distribution("negative-binomial", 30.0, shape=50.0),  # numpy's sampler
        make_distribution("degenerate", 2 * HOUR),
        make_distribution("discrete-uniform", 2 * HOUR),
        make_distribution("poisson", 2 * HOUR),
    ],
    ids=["geometric", "geometric-search", "nb-clusters", "nb-sampler", "degenerate",
         "uniform", "poisson"],
)
def test_posts_that_end_before_their_first_toggle_need_no_schedule(up):
    """evaluate_utility draws a schedule only for posts with an interaction
    at or after their first toggle, and counts as the reference that draws
    every post: for each up law's draw path, several seeds, and posts whose
    last interaction lands exactly on the first toggle or one second before."""
    down = make_distribution("negative-binomial", HOUR, shape=6e-4)
    for seed in range(3):
        trace = list(generate_synthetic_trace(40, 3.0, up.mean, rng=rng("filter", seed)))
        secret = np.random.default_rng(seed).bytes(32)  # as evaluate_utility draws it
        for i in range(20):
            post_key = f"edge-{i}"
            key = schedule_key(secret, post_key)
            first = int(generate_schedule(up, down, 0, 1, key).toggles[0])
            offsets = [0, first // 2, first - 1] if i % 2 else [first // 2, first]
            trace.append(TracePost(post_key, 0, np.array(sorted(set(offsets)), dtype=np.int64)))
        result = evaluate_utility(tuple(trace), up, down, np.random.default_rng(seed))
        assert result == _utility_drawing_every_post(trace, up, down, np.random.default_rng(seed))
        assert result.missed >= 10  # every interaction exactly at a first toggle is missed
