"""Schedules: generation, extension, observability, observation summaries."""

import hashlib
import hmac
import time

import numpy as np
import pytest

from lethe.distributions import make_distribution
from lethe.schedule import (
    PostRecord,
    Schedule,
    extend_schedule,
    generate_schedule,
    observable,
    observation_summary,
    schedule_key,
    toggle_batches,
)

from conftest import key

HOUR = 3600
DAY = 86400
YEAR = 365 * DAY


@pytest.fixture(scope="module")
def degenerate_schedule():
    up = make_distribution("degenerate", 9 * HOUR)
    down = make_distribution("degenerate", HOUR)
    return generate_schedule(up, down, t0=0, horizon=YEAR, key=key("deg"))


def test_strawman_toggle_pattern(degenerate_schedule):
    s = degenerate_schedule
    assert list(s.toggles[:4]) == [9 * HOUR, 10 * HOUR, 19 * HOUR, 20 * HOUR]
    assert s.covered_until >= YEAR
    assert s.created_at == 0


def test_schedule_invariants(mechanism_90):
    up, down = mechanism_90
    s = generate_schedule(up, down, t0=1000, horizon=YEAR, key=key("inv"))
    diffs = np.diff(s.toggles)
    assert (diffs >= 1).all()
    assert s.toggles[0] > s.created_at
    assert s.covered_until >= s.toggles[-1]


def test_same_seed_reproduces_schedule(mechanism_90):
    up, down = mechanism_90
    a = generate_schedule(up, down, 0, YEAR, key("same", 1))
    b = generate_schedule(up, down, 0, YEAR, key("same", 1))
    assert np.array_equal(a.toggles, b.toggles)
    assert a.covered_until == b.covered_until


def test_golden_schedule(mechanism_90):
    # pins the stored format: replay regenerates every post's schedule from
    # its keyed blocks, so any change to the draws would silently rewrite it
    up, down = mechanism_90
    s = generate_schedule(up, down, 0, YEAR, schedule_key(bytes(32), "golden"))
    assert len(s.toggles) == 2048
    assert s.toggles[:4].tolist() == [4968, 4969, 18924, 18925]
    assert s.covered_until == 36482333
    assert int(s.toggles.sum()) == 38128801762


def _keyed_reference(up, down, t0, horizon, secret, post_id):
    """Toggle-at-a-time form of the block rule, built without the schedule
    module: block b is 256 up then 256 down draws from a fresh Philox keyed
    by HMAC-SHA256(secret, post id)[:16] at counter b << 192, and whole
    blocks are drawn until coverage reaches t0 + horizon."""
    digest = hmac.new(secret, post_id.encode(), hashlib.sha256).digest()
    words = np.frombuffer(digest[:16], dtype="<u8")
    toggles, t, block = [], t0, 0
    while t < t0 + horizon:
        gen = np.random.Generator(np.random.Philox(key=words, counter=block << 192))
        ups = up.sample(gen, size=256)
        downs = down.sample(gen, size=256)
        for u, d in zip(ups, downs):
            t += int(u)
            toggles.append(t)
            t += int(d)
            toggles.append(t)
        block += 1
    return toggles


LAW_PAIRS = [
    (
        make_distribution("geometric", 9 * HOUR),
        make_distribution("negative-binomial", HOUR, shape=6e-4),
    ),
    (make_distribution("zeta", 5 * HOUR), make_distribution("poisson", 1800.0)),
    (
        make_distribution("discrete-uniform", 2 * HOUR),
        make_distribution("degenerate", 600),
    ),
]
LAW_IDS = ["geometric-nb", "zeta-poisson", "uniform-degenerate"]


@pytest.mark.parametrize("up, down", LAW_PAIRS, ids=LAW_IDS)
def test_blocks_match_loop_reference(up, down):
    secret = bytes(range(32))
    for i, horizon in enumerate([1, 30 * DAY, 2 * YEAR]):
        post_id = f"loop-{i}"
        k = schedule_key(secret, post_id)
        s = generate_schedule(up, down, 777, horizon, k)
        toggles = _keyed_reference(up, down, 777, horizon, secret, post_id)
        assert s.toggles.tolist() == toggles
        assert s.covered_until == toggles[-1]
        assert s.key == k
        # extending from the block boundary continues the same blocks
        longer = extend_schedule(s, up, down, 3 * horizon + DAY)
        toggles = _keyed_reference(up, down, 777, 3 * horizon + DAY, secret, post_id)
        assert longer.toggles.tolist() == toggles
        assert longer.key == k
        # (created_at, key, whole blocks of toggles) is all a schedule needs
        one_step = generate_schedule(up, down, 777, 3 * horizon + DAY, k)
        assert one_step.toggles.tolist() == toggles
        n = len(toggles) // 512
        for blocks in sorted({0, 1, n // 2, n - 1}):
            rebuilt = Schedule(777, longer.toggles[: 512 * blocks].copy(), k)
            extended = extend_schedule(rebuilt, up, down, 3 * horizon + DAY)
            assert np.array_equal(extended.toggles, longer.toggles)


def _draw_many(schedules, up, down, horizons):
    """Each schedule extended to its horizon through one ``toggle_batches``
    call; a schedule that already covers its horizon comes back as it is."""
    out = list(schedules)
    posts = [
        (s.key, s.covered_until, s.created_at + h, len(s.toggles) // 512)
        for s, h in zip(out, horizons)
    ]
    for first, toggles, bounds in toggle_batches(up, down, posts):
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=first):
            if lo < hi:
                s = out[i]
                out[i] = Schedule(s.created_at, np.concatenate([s.toggles, toggles[lo:hi]]), s.key)
    return out


@pytest.mark.parametrize(
    "up, down",
    LAW_PAIRS
    + [
        # p = 1/3 takes numpy's search, not the exponential inversion
        (make_distribution("geometric", 3.0), make_distribution("geometric", 3.5)),
        # both laws inverted: two inexact length bounds per block
        (make_distribution("geometric", 9 * HOUR), make_distribution("geometric", HOUR)),
    ],
    ids=LAW_IDS + ["short-geometric", "geometric-geometric"],
)
def test_many_post_draw_matches_one_post(up, down):
    secret = bytes(range(32))
    block = 256 * (up.mean + down.mean)  # mean span of one block
    keys = [schedule_key(secret, f"many-{i}") for i in range(40)]
    starts = [int(t) for t in np.random.default_rng(9).integers(0, 10 * DAY, 40)]
    horizons = [1] + [int(block * f) for f in np.linspace(0.3, 7.0, 39)]
    # a target exactly at the end of a post's second block takes two blocks
    two = generate_schedule(up, down, starts[1], int(3 * block), keys[1])
    horizons[1] = int(two.toggles[1023]) - starts[1]
    empties = [Schedule(t, np.empty(0, dtype=np.int64), k) for t, k in zip(starts, keys)]
    many = _draw_many(empties, up, down, horizons)
    assert len(many[1].toggles) == 1024
    for i, (s, t0, h, k) in enumerate(zip(many, starts, horizons, keys)):
        assert s.toggles.tolist() == generate_schedule(up, down, t0, h, k).toggles.tolist()
        assert s.toggles.tolist() == _keyed_reference(up, down, t0, h, secret, f"many-{i}")
        assert (s.created_at, s.key) == (t0, k)
    # extending posts that hold toggles; a post already covered is kept as is
    targets = [h if i % 5 == 0 else 2 * h + int(block) for i, h in enumerate(horizons)]
    longer = _draw_many(many, up, down, targets)
    for s, extended, h in zip(many, longer, targets):
        assert extended.toggles.tolist() == extend_schedule(s, up, down, h).toggles.tolist()
        fresh = generate_schedule(up, down, s.created_at, h, s.key)
        assert extended.toggles.tolist() == fresh.toggles.tolist()
    assert all(longer[i] is many[i] for i in range(0, 40, 5))


def test_extension_prefix_stable_and_step_invariant(mechanism_90):
    up, down = mechanism_90
    base = generate_schedule(up, down, 0, 30 * DAY, key("ext"))
    one_step = extend_schedule(base, up, down, 3 * YEAR)
    two_step = extend_schedule(
        extend_schedule(base, up, down, 200 * DAY), up, down, 3 * YEAR
    )
    assert np.array_equal(one_step.toggles, two_step.toggles)
    assert np.array_equal(one_step.toggles[: len(base.toggles)], base.toggles)
    assert one_step.covered_until >= 3 * YEAR
    # extension to an already-covered horizon is a no-op
    assert extend_schedule(base, up, down, 10 * DAY) is base


def test_extension_preserves_past_answers(mechanism_90):
    up, down = mechanism_90
    base = generate_schedule(up, down, 0, 60 * DAY, key("past"))
    extended = extend_schedule(base, up, down, YEAR)
    probes = np.linspace(0, 60 * DAY, 500).astype(int)
    for t in probes:
        assert base.state_at(int(t)) == extended.state_at(int(t))


def test_observable_contracts(degenerate_schedule):
    post = PostRecord("p", "tok", "content", degenerate_schedule)
    assert observable(post, 0) is True  # initially up
    assert observable(post, 9 * HOUR - 1) is True
    assert observable(post, 9 * HOUR) is False  # first down phase
    assert observable(post, 10 * HOUR) is True
    with pytest.raises(ValueError):
        observable(post, degenerate_schedule.covered_until + 1)
    with pytest.raises(ValueError):
        degenerate_schedule.state_at(-5)


def test_deletion_forces_down(degenerate_schedule):
    post = PostRecord("p", "tok", "content", degenerate_schedule)
    post.mark_deleted(5 * HOUR)  # mid first up phase
    assert observable(post, 5 * HOUR - 1) is True
    assert observable(post, 5 * HOUR) is False
    assert observable(post, 30 * HOUR) is False  # never visible again
    with pytest.raises(ValueError):
        post.mark_deleted(6 * HOUR)  # cannot re-delete


def test_deletion_never_creates_visibility(mechanism_90):
    up, down = mechanism_90
    s = generate_schedule(up, down, 0, 30 * DAY, key("vis"))
    clean = PostRecord("a", "t", "c", s)
    deleted = PostRecord("b", "t", "c", s)
    deleted.mark_deleted(3 * DAY)
    for t in range(0, 20 * DAY, 9999):
        assert not (observable(deleted, t) and not observable(clean, t))


def test_observation_summary_cases(degenerate_schedule):
    s = degenerate_schedule
    # non-deleted, inside first down phase
    post = PostRecord("p", "tok", "c", s)
    summary = observation_summary(post, 9 * HOUR + 600)
    assert summary.last_up == 9 * HOUR
    assert summary.down_elapsed == 600
    assert summary.as_of == 9 * HOUR + 600
    # currently up
    assert observation_summary(post, 100) is None
    assert observation_summary(post, 10 * HOUR) is None

    # deleted mid up phase: truncated up duration observed
    cut = PostRecord("q", "tok", "c", s)
    cut.mark_deleted(5 * HOUR)
    summary = observation_summary(cut, 5 * HOUR + 50)
    assert summary.last_up == 5 * HOUR
    assert summary.down_elapsed == 50

    # deleted during a scheduled down phase: merges invisibly
    merged = PostRecord("r", "tok", "c", s)
    merged.mark_deleted(9 * HOUR + 120)
    summary = observation_summary(merged, 12 * HOUR)
    assert summary.last_up == 9 * HOUR
    assert summary.down_elapsed == 3 * HOUR

    # deletion exactly at an up-phase-start toggle merges with previous down
    at_up = PostRecord("s", "tok", "c", s)
    at_up.mark_deleted(10 * HOUR)
    summary = observation_summary(at_up, 11 * HOUR)
    assert summary.last_up == 9 * HOUR
    assert summary.down_elapsed == 2 * HOUR

    # deletion exactly at a down-toggle instant belongs to the down phase
    at_down = PostRecord("t", "tok", "c", s)
    at_down.mark_deleted(19 * HOUR)
    summary = observation_summary(at_down, 19 * HOUR + 30)
    assert summary.last_up == 9 * HOUR
    assert summary.down_elapsed == 30


def test_summary_at_toggle_instant_clamps_to_one(degenerate_schedule):
    post = PostRecord("p", "tok", "c", degenerate_schedule)
    summary = observation_summary(post, 9 * HOUR)
    assert summary.down_elapsed == 1


def test_down_period_rate_matches_renewal_theory(mechanism_90):
    # Monte-Carlo rate of long down phases ~ window/mean_cycle * ccdf(theta-1)
    up, down = mechanism_90
    theta = 12 * HOUR
    window = 200 * DAY
    q = down.ccdf(theta - 1)
    expected_per_post = window / (up.mean + down.mean) * q
    posts = 400
    total = 0
    for i in range(posts):
        s = generate_schedule(up, down, 0, window + 10 * DAY, key("rate", i))
        starts, ends = s.toggles[0::2], s.toggles[1::2]  # down phases
        total += int(((starts <= window) & (ends - starts >= theta)).sum())
    expected = posts * expected_per_post
    assert abs(total - expected) <= 3 * np.sqrt(expected) + 3


def test_long_run_observable_fraction(mechanism_90):
    up, down = mechanism_90
    horizon = 2 * YEAR
    fractions = []
    for i in range(150):
        s = generate_schedule(up, down, 0, horizon, key("frac", i))
        cut = s.toggles[s.toggles <= horizon]
        durations = np.diff(np.concatenate([[0], cut, [horizon]]))
        fractions.append(durations[::2].sum() / horizon)
    assert np.mean(fractions) == pytest.approx(0.90, abs=0.02)


def test_point_query_cost_sublinear_in_toggles(mechanism_90):
    # state_at is a binary search: 64x the toggles costs far less than 64x
    up, down = mechanism_90
    query_rng = np.random.default_rng(1)

    def per_query(years):
        s = generate_schedule(up, down, 0, years * YEAR, key("query", years))
        times = [int(t) for t in query_rng.integers(0, years * YEAR, size=5000)]
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for t in times:
                s.state_at(t)
            best = min(best, time.perf_counter() - started)
        return len(s.toggles), best

    small_toggles, small_cost = per_query(1)
    large_toggles, large_cost = per_query(64)
    size_ratio = large_toggles / small_toggles
    assert size_ratio > 32
    assert large_cost / small_cost < size_ratio / 4
