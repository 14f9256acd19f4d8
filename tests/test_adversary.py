"""Adversary simulation: closed forms, engines, determinism, monotonicity."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

import lethe.adversary
from lethe._rng import substream
from lethe.adversary import (
    DAY,
    FLAG_MULTI,
    FLAG_ONCE,
    SimulationConfig,
    analytic_expected_fp,
    fft_table,
    run_both_scenarios,
    run_simulation,
    true_positive_closed_form,
)
from lethe.distributions import make_distribution
from lethe.schedule import generate_schedule, schedule_key, toggle_batches
from lethe.tuning import build_mechanism

from conftest import rng
from oracles import chunk_counts_reference, hazard_deletion_days, survival_integral


def small_config(**overrides):
    base = dict(
        initial_posts=4000,
        creations_per_day=32,
        deletions_per_day=10,
        horizon_days=365,
        availability_target=0.90,
        mean_down=3600.0,
        theta_star_for_tuning=30 * DAY,
        thresholds_to_evaluate=(30 * DAY, 90 * DAY),
        scenario=FLAG_MULTI,
        scale_factor=1.0,
        seed=7,
        engine="exact",
    )
    base.update(overrides)
    return SimulationConfig(**base)


# ---------------------------------------------------------------------------
# config validation


# (initial_posts, creations_per_day, deletions_per_day, horizon_days): the
# day-batched process runs out of victims on day 10 and on day 1 ...
_DRAINED = [(11, 2, 3, 10), (2, 5, 3, 10)]
# ... and with one post more it leaves exactly one day's victims
_JUST_RUNNABLE = [(12, 2, 3, 10), (3, 5, 3, 10)]


def _drain_config(posts, engine):
    n0, c, d, days = posts
    return small_config(initial_posts=n0, creations_per_day=c, deletions_per_day=d,
                        horizon_days=days, thresholds_to_evaluate=(DAY,), engine=engine)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(thresholds_to_evaluate=(400 * DAY,))  # beyond horizon
    for engine in ("exact", "accelerated"):
        for posts in _DRAINED:
            with pytest.raises(ValueError, match="drain"):
                _drain_config(posts, engine)
        for posts in _JUST_RUNNABLE:
            _drain_config(posts, engine)
    small_config(initial_posts=300_000 - 32 * 365)  # the exact engine's cap, checked when built
    with pytest.raises(ValueError, match=r"^exact engine supports up to 300000 posts "
                       r"\(300001 requested\); use the accelerated engine$"):
        small_config(initial_posts=300_001 - 32 * 365)
    small_config(initial_posts=10**6, engine="accelerated")
    with pytest.raises(ValueError):
        small_config(scenario="flag-sometimes")
    with pytest.raises(ValueError):
        small_config(engine="warp")
    with pytest.raises(ValueError):
        small_config(deletions_per_day=10_000)  # would drain the platform
    with pytest.raises(ValueError):
        small_config(thresholds_to_evaluate=())
    with pytest.raises(ValueError):
        small_config(scale_factor=0.0)
    with pytest.raises(ValueError):
        small_config(threads=0)
    with pytest.raises(ValueError):
        small_config(threads=-1)
    # _thetas truncates to whole seconds; 0 would divide by zero
    for theta in (0.0, 1e-5, 0.999, -1.0, -86400.0, float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="at least 1 second"):
            small_config(thresholds_to_evaluate=(30 * DAY, theta))
    small_config(thresholds_to_evaluate=(1.0,))


def test_exact_engine_population_cap():
    with pytest.raises(ValueError):
        run_simulation(small_config(initial_posts=10**6))


@pytest.mark.parametrize("posts", _JUST_RUNNABLE, ids=["shrinking", "growing"])
def test_configs_at_the_drain_rule_run_on_both_engines(mechanism_90, posts):
    """The exact population takes every live post on its tightest day: the
    last one when the platform shrinks, the first when it grows."""
    n0, c, d, days = posts
    created, deleted = lethe.adversary._exact_population(_drain_config(posts, "exact"))
    assert (deleted >= 0).sum() == d * days
    if c < d:
        assert np.array_equal(deleted < 0, created == days)
    else:
        assert np.array_equal(deleted[:n0], np.ones(n0))
    for engine in ("exact", "accelerated"):
        report = run_simulation(_drain_config(posts, engine), mechanism=mechanism_90)
        assert (report.engine, len(report.per_threshold)) == (engine, 1)


# ---------------------------------------------------------------------------
# closed forms


def test_true_positive_closed_form_examples():
    cfg = small_config(
        initial_posts=100_000_000,
        creations_per_day=32_000,
        deletions_per_day=10_000,
        horizon_days=3650,
        engine="accelerated",
        thresholds_to_evaluate=(180 * DAY,),
        theta_star_for_tuning=180 * DAY,
        scale_factor=1e-4,
    )
    assert true_positive_closed_form(cfg, 180 * DAY) == pytest.approx(34_700_000)
    assert true_positive_closed_form(cfg, 3650 * DAY) == 0.0


def test_analytic_fp_zero_for_degenerate_down():
    cfg = small_config(thresholds_to_evaluate=(2 * 3600.0,))
    mech = (
        make_distribution("degenerate", 9 * 3600),
        make_distribution("degenerate", 3600),
    )
    assert analytic_expected_fp(cfg, 2 * 3600.0, mechanism=mech) == 0.0


def test_exact_engine_no_flags_for_degenerate_down():
    cfg = small_config(
        initial_posts=300,
        horizon_days=60,
        thresholds_to_evaluate=(2 * 3600.0,),
        creations_per_day=2,
        deletions_per_day=1,
    )
    mech = (
        make_distribution("degenerate", 9 * 3600),
        make_distribution("degenerate", 3600),
    )
    reports = run_both_scenarios(cfg, mechanism=mech)
    for scenario in (FLAG_ONCE, FLAG_MULTI):
        m = reports[scenario].per_threshold[0]
        assert m.fp == 0
        assert m.tp > 0  # real deletions still caught via the terminal outage


@pytest.mark.parametrize("down", [
    make_distribution("degenerate", 3600), make_distribution("geometric", 3600),
], ids=["degenerate", "geometric"])
def test_accelerated_engine_no_flags_when_down_never_reaches_theta(down):
    """A down law that cannot reach theta (degenerate 1 h at 2 h) or whose
    ccdf underflows to 0 there (geometric 1 h at 60 d) never flags a post;
    both engines still catch real deletions through the terminal outage."""
    theta = 2 * 3600.0 if down.kind == "degenerate" else 60 * DAY
    assert down.ccdf(int(theta) - 1) == 0.0
    cfg = small_config(initial_posts=300, horizon_days=90, thresholds_to_evaluate=(theta,),
                       creations_per_day=2, deletions_per_day=1, engine="accelerated")
    mech = (make_distribution("degenerate", 9 * 3600), down)
    assert analytic_expected_fp(cfg, theta, mechanism=mech) == 0.0
    for engine in ("accelerated", "exact"):
        reports = run_both_scenarios(dataclasses.replace(cfg, engine=engine), mechanism=mech)
        for scenario in (FLAG_ONCE, FLAG_MULTI):
            m = reports[scenario].per_threshold[0]
            assert m.fp == 0, (engine, scenario)
            assert m.tp > 0, (engine, scenario)


def test_accelerated_engine_at_a_one_second_threshold(mechanism_90):
    """At theta = 1 s every down phase flags (q = 1): the accelerated engine
    runs, its flag-multi FP matches the oracle, and its flag-once FP the
    exact engine's within 3 sigma."""
    cfg = small_config(engine="accelerated", horizon_days=3,
                       thresholds_to_evaluate=(1.0, 3600.0))
    assert mechanism_90[1].ccdf(0) == 1.0
    accel = run_both_scenarios(cfg, mechanism=mechanism_90)
    exact = run_both_scenarios(dataclasses.replace(cfg, engine="exact"), mechanism=mechanism_90)
    multi = accel[FLAG_MULTI].per_threshold[0]
    assert (multi.fn, multi.recall) == (0, 1.0)
    assert multi.tp > 0
    expected = analytic_expected_fp(cfg, 1.0, mechanism=mechanism_90)
    assert multi.fp == pytest.approx(expected, rel=0.01)
    once_a, once_e = accel[FLAG_ONCE].per_threshold[0], exact[FLAG_ONCE].per_threshold[0]
    assert 0 < once_a.fp <= cfg.total_posts
    assert abs(once_a.fp - once_e.fp) <= 3 * math.hypot(math.sqrt(once_a.fp), math.sqrt(once_e.fp))


def _oracle_loop(cfg, theta, mechanism):
    """Per-level loop reference for analytic_expected_fp: one survival
    integral over the creation days per flag level m, up to and including
    the first level with q_m < 1e-18."""
    up, down = mechanism
    s_days = np.arange(cfg.horizon_days + 1, dtype=np.float64)
    cohort = np.full(cfg.horizon_days + 1, float(cfg.creations_per_day))
    cohort[0] = cfg.initial_posts
    total = 0.0
    for m in range(1, max(1, cfg.horizon_seconds // theta) + 1):
        q = down.ccdf(m * theta - 1)
        expected = survival_integral(cfg, s_days, s_days + m * theta / DAY)
        total += q * float((cohort * expected).sum()) * DAY / (up.mean + down.mean)
        if q < 1e-18:
            break
    return total


@pytest.mark.parametrize("creations", [32, 10, 20, 6],
                         ids=["growth", "C==D", "kappa==1", "shrinking"])
def test_vectorised_oracle_matches_loop_reference(mechanism_90, creations):
    """No growth (C == D) and kappa == 1 (C == 2D) take their own forms of the
    survival integral, and growth > 0 and < 0 the power form, over a year and
    over a single day.  A whole-day threshold has one day fraction, and 1 h,
    5 h and 6 h have 24, 24 and 4; 10 s over one day has 8,639 levels, each in
    its own fraction, all in one FFT.  A threshold the down law cannot reach
    (q underflows to 0) gives exactly 0."""
    geometric = (mechanism_90[0], make_distribution("geometric", 3600))
    for horizon in (365, 1):
        cfg = small_config(creations_per_day=creations, deletions_per_day=10,
                           horizon_days=horizon, thresholds_to_evaluate=(3600,))
        thetas = [t for t in (3600, 5 * 3600, 6 * 3600, 30 * DAY, 90 * DAY) if t < horizon * DAY]
        thetas += [10] if horizon == 1 else []
        cases = [(mechanism_90, theta) for theta in thetas]
        cases += [(geometric, theta) for theta in (3600, 5 * 3600)]  # cut at q < 1e-18
        for mechanism, theta in cases:
            expected = _oracle_loop(cfg, theta, mechanism)
            assert expected > 0.0
            assert analytic_expected_fp(cfg, theta, mechanism=mechanism) == pytest.approx(
                expected, rel=1e-12, abs=0.0
            )
    assert geometric[1].ccdf(90 * DAY - 1) == 0.0
    cfg = small_config(creations_per_day=creations, deletions_per_day=10)
    assert analytic_expected_fp(cfg, 90 * DAY, mechanism=geometric) == 0.0


def test_level_ccdfs_at_one_second_over_two_days(mechanism_90):
    """theta = 1 s over 2 days: 172,800 levels, evaluated in bounded chunks.
    The geometric down cuts off mid-way (q < 1e-18 near level 149k), the
    tuned one never does."""
    import tracemalloc

    horizon = 2 * DAY
    geometric = make_distribution("geometric", 3600)
    reference = []
    for m in range(1, horizon + 1):
        reference.append(geometric.ccdf(m - 1))
        if reference[-1] < 1e-18:
            break
    assert 100_000 < len(reference) < horizon
    tracemalloc.start()
    try:
        cut = lethe.adversary._level_ccdfs(geometric, 1, horizon)
        full = lethe.adversary._level_ccdfs(mechanism_90[1], 1, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert cut.tolist() == reference
    assert len(full) == horizon and full.min() >= 1e-18
    for m in (1, 2, 65, 3600, 100_000, horizon):
        assert full[m - 1] == mechanism_90[1].ccdf(m - 1)


def test_analytic_fp_decreasing_in_theta(mechanism_90):
    cfg = small_config()
    values = [
        analytic_expected_fp(cfg, theta, mechanism=mechanism_90)
        for theta in (30 * DAY, 60 * DAY, 90 * DAY, 180 * DAY)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# engines


def test_exact_deterministic_and_thread_invariant(mechanism_90):
    cfg = small_config(initial_posts=600, horizon_days=120, creations_per_day=4,
                       deletions_per_day=1, thresholds_to_evaluate=(10 * DAY,))
    a = run_both_scenarios(cfg, mechanism=mechanism_90)
    b = run_both_scenarios(cfg, mechanism=mechanism_90)
    c = run_both_scenarios(
        dataclasses.replace(cfg, threads=4), mechanism=mechanism_90
    )
    for scenario in (FLAG_ONCE, FLAG_MULTI):
        for x, y in ((a, b), (a, c)):
            mx = x[scenario].per_threshold[0]
            my = y[scenario].per_threshold[0]
            assert (mx.tp, mx.fp, mx.fn) == (my.tp, my.fp, my.fn)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_exact_counts_golden(mechanism_90, threads):
    """Counts on the store's keyed schedule blocks, the same for any number
    of worker processes."""
    cfg = small_config(initial_posts=2000, creations_per_day=8, deletions_per_day=2,
                       seed=4, threads=threads)
    reports = run_both_scenarios(cfg, mechanism=mechanism_90)
    counts = {
        scenario: [(m.tp, m.fp, m.fn) for m in reports[scenario].per_threshold]
        for scenario in (FLAG_ONCE, FLAG_MULTI)
    }
    assert counts == {
        FLAG_ONCE: [(616, 865, 66), (548, 126, 11)],
        FLAG_MULTI: [(672, 1496, 0), (553, 142, 0)],
    }


def _exact_post(counts, thetas, down_start, down_end, t_del, horizon):
    """Loop reference for the exact engine's flag counter: one post's down
    phases (offsets from its creation), deletion offset (None if it
    survives) and horizon offset."""
    _FP_MULTI, _TP_MULTI, _FP_ONCE, _FN_ONCE, _TP_ONCE = range(5)
    if t_del is None:
        obs_len = np.minimum(down_end, horizon) - down_start
        obs_len = obs_len[obs_len >= thetas[0]]  # shorter phases flag nothing
        if len(obs_len):
            counts[_FP_MULTI] += (obs_len[None, :] // thetas[:, None]).sum(axis=1)
            counts[_FP_ONCE] += int(obs_len.max()) >= thetas
        return

    # deleted post: phases fully completed while alive, then the terminal
    # observed down period (which may merge with a scheduled down phase)
    idx = int(np.searchsorted(down_start, t_del, side="right"))
    lens = down_end[:idx] - down_start[:idx]
    if idx > 0 and down_end[idx - 1] >= t_del:
        # deletion inside (or exactly at the end of) that down phase: it
        # becomes the terminal observed down period
        term_start = int(down_start[idx - 1])
        lens = lens[:-1]
    else:
        term_start = t_del
    lens = lens[lens >= thetas[0]]

    pre = np.maximum(t_del - term_start - 1, 0) // thetas  # flags before t_del
    if len(lens):
        counts[_FP_MULTI] += (lens[None, :] // thetas[:, None]).sum(axis=1)
    counts[_FP_MULTI] += pre
    first_after = term_start + (pre + 1) * thetas
    counts[_TP_MULTI] += first_after <= horizon
    preflagged = (pre >= 1) | ((int(lens.max()) if len(lens) else 0) >= thetas)
    counts[_FP_ONCE] += preflagged
    counts[_FN_ONCE] += preflagged
    counts[_TP_ONCE] += (~preflagged) & (first_after <= horizon)


def test_vectorised_flag_counter_matches_loop_reference():
    up = make_distribution("geometric", 3 * 3600.0)
    down = make_distribution("geometric", 2 * 3600.0)
    thetas = np.array([2 * 3600, 5 * 3600, DAY])
    rng = np.random.default_rng(17)
    secret = bytes(32)
    keys, ends, t_del = [], [], []
    for i in range(400):
        key = schedule_key(secret, i)
        end = int(rng.integers(2 * DAY, 20 * DAY))
        toggles = generate_schedule(up, down, 0, end, key).toggles
        toggles = toggles[toggles <= end]
        k = int(rng.integers(len(toggles) // 2))
        # survivors, random deletions, and deletions at the phase boundaries:
        # a down phase's start and end (an up phase's start) and next to them
        t = [-1, int(rng.integers(1, end + 1)), toggles[2 * k], toggles[2 * k + 1],
             toggles[2 * k] - 1, toggles[2 * k + 1] + 1, toggles[2 * k] + 1][i % 7]
        keys.append(key)
        ends.append(end)
        t_del.append(-1 if t < 0 else min(max(int(t), 1), end))
    for i in range(60):
        # deletions on a block's last toggle, and on the next block's first,
        # each in the last block its post draws
        key = schedule_key(secret, f"edge-{i}")
        end = int(rng.integers(120 * DAY, 400 * DAY))
        toggles = generate_schedule(up, down, 0, end, key).toggles
        toggles = toggles[toggles <= end]
        b = int(rng.integers(1, (len(toggles) - 1) // 512 + 1))
        keys.append(key)
        ends.append(end)
        t_del.append(int(toggles[512 * b - 1 + i % 2]))
    ends, t_del = np.array(ends), np.array(t_del)
    spans = np.where(t_del >= 0, t_del, ends)

    expected = np.zeros((5, len(thetas)), dtype=np.int64)
    for key, end, t, span in zip(keys, ends, t_del, spans):
        toggles = generate_schedule(up, down, 0, int(span), key).toggles
        _exact_post(expected, thetas, toggles[0::2], toggles[1::2],
                    int(t) if t >= 0 else None, int(end))
    counts = np.zeros_like(expected)
    posts = [(key, 0, span, 0) for key, span in zip(keys, spans.tolist())]
    batches = list(toggle_batches(up, down, posts))
    lethe.adversary._count_flags(counts, thetas, batches, t_del, ends)
    assert len(batches) > 1
    assert expected[:, 0].min() > 0  # every counter is exercised
    assert counts.tolist() == expected.tolist()


def test_exact_engine_counts_posts_that_draw_no_block(monkeypatch, mechanism_90):
    """Posts created on the horizon day span 0 s and draw no block.  With one
    block per batch, a batch closes right before their run, so the last batch
    holds no block; the counts equal those of the drawn posts alone."""
    monkeypatch.setattr("lethe.schedule._BATCH_BLOCKS", 1)
    batches = []

    def spy(*args):
        for batch in toggle_batches(*args):
            batches.append(batch)
            yield batch

    monkeypatch.setattr(lethe.adversary, "toggle_batches", spy)
    cfg = small_config(initial_posts=300, creations_per_day=4, deletions_per_day=2,
                       horizon_days=40, thresholds_to_evaluate=(3600, 5 * DAY))
    up, down = mechanism_90
    created, deleted = lethe.adversary._exact_population(cfg)
    counts = lethe.adversary._exact_posts(cfg, up, down, created, deleted, 0, 1)
    empty = cfg.creations_per_day  # the horizon day's cohort
    assert batches[-1].bounds == [0] * (empty + 1) and len(batches[-1].steps) == 0

    t0 = created * DAY
    ends = cfg.horizon_seconds - t0
    t_del = np.where(deleted >= 0, deleted * DAY - t0, -1)
    spans = np.where(t_del >= 0, t_del, ends)
    (drawn,) = np.nonzero(spans > 0)
    assert len(drawn) == cfg.total_posts - empty
    secret = substream(cfg.seed, "schedule").bytes(32)
    posts = [(schedule_key(secret, uid), 0, spans[uid], 0) for uid in drawn.tolist()]
    expected = np.zeros_like(counts)
    lethe.adversary._count_flags(expected, lethe.adversary._thetas(cfg),
                                 toggle_batches(up, down, posts), t_del[drawn], ends[drawn])
    assert expected[:, 0].min() > 0  # every counter is exercised
    assert counts.tolist() == expected.tolist()


def test_accelerated_deterministic_and_thread_invariant(mechanism_90):
    cfg = small_config(engine="accelerated", initial_posts=50_000)
    a = run_both_scenarios(cfg, mechanism=mechanism_90)
    b = run_both_scenarios(cfg, mechanism=mechanism_90)
    c = run_both_scenarios(
        dataclasses.replace(cfg, threads=8), mechanism=mechanism_90
    )
    for scenario in (FLAG_ONCE, FLAG_MULTI):
        for j in range(2):
            mx, my, mz = (
                r[scenario].per_threshold[j] for r in (a, b, c)
            )
            assert (mx.tp, mx.fp, mx.fn) == (my.tp, my.fp, my.fn)
            assert (mx.tp, mx.fp, mx.fn) == (mz.tp, mz.fp, mz.fn)


FFT_GRID = dict(availabilities=(0.85, 0.95), theta_days_grid=(20, 40))


def _fft_base(**overrides):
    return small_config(engine="accelerated", initial_posts=20_000, creations_per_day=16,
                        deletions_per_day=5, horizon_days=120, seed=9, **overrides)


def _single_cell_runs(base):
    """fp per (scenario, availability, theta_days), one simulation per cell."""
    fps = {}
    for availability in FFT_GRID["availabilities"]:
        for days in FFT_GRID["theta_days_grid"]:
            cfg = dataclasses.replace(
                base, availability_target=availability,
                theta_star_for_tuning=days * DAY, thresholds_to_evaluate=(days * DAY,),
            )
            for scenario, report in run_both_scenarios(cfg).items():
                fps[(scenario, availability, float(days))] = report.per_threshold[0].fp
    return fps


def _fft_fps(base):
    return {(c.scenario, c.availability, c.theta_days): c.fp for c in fft_table(base, **FFT_GRID)}


def test_fft_table_cells_equal_their_own_runs(monkeypatch):
    """The grid's shared population pass gives each cell, bit for bit, the
    counts of a simulation of that cell alone."""
    monkeypatch.setattr(lethe.adversary, "_CHUNK", 6_000)  # four chunks
    base = _fft_base()
    assert _fft_fps(base) == _single_cell_runs(base)


def test_accelerated_counts_golden(monkeypatch, mechanism_90):
    """Accelerated counts over several chunks and thresholds, and the
    fft_table cells of _fft_base(), pinned: the engine's arithmetic may be
    reorganised, but every draw and count must stay as it is."""
    monkeypatch.setattr(lethe.adversary, "_CHUNK", 6_000)  # six chunks
    cfg = small_config(engine="accelerated", initial_posts=20_000, seed=4,
                       thresholds_to_evaluate=(10 * DAY, 30 * DAY, 90 * DAY))
    reports = run_both_scenarios(cfg, mechanism=mechanism_90)
    counts = {
        scenario: [(m.tp, m.fp, m.fn) for m in reports[scenario].per_threshold]
        for scenario in (FLAG_ONCE, FLAG_MULTI)
    }
    assert counts == {
        FLAG_ONCE: [(2666, 13917, 1064), (3142, 6694, 410), (2878, 1151, 45)],
        FLAG_MULTI: [(3678, 56437, 0), (3488, 12274, 0), (2904, 1248, 0)],
    }
    assert _fft_fps(_fft_base()) == {
        (FLAG_MULTI, 0.85, 20.0): 6422, (FLAG_MULTI, 0.85, 40.0): 2008,
        (FLAG_MULTI, 0.95, 20.0): 2117, (FLAG_MULTI, 0.95, 40.0): 655,
        (FLAG_ONCE, 0.85, 20.0): 4241, (FLAG_ONCE, 0.85, 40.0): 1794,
        (FLAG_ONCE, 0.95, 20.0): 1412, (FLAG_ONCE, 0.95, 40.0): 568,
    }


def test_fft_table_thread_invariant(monkeypatch):
    monkeypatch.setattr(lethe.adversary, "_CHUNK", 6_000)
    fps = [_fft_fps(_fft_base(threads=threads)) for threads in (1, 2, 3)]
    assert fps[0] == fps[1] == fps[2]


def _population(cfg, index, lo, hi):
    survivors, exposed, blocks, state = lethe.adversary._chunk_population(cfg, index, lo, hi)
    exposure, slack = (np.concatenate(a).tolist() for a in zip(*blocks))
    return survivors.tolist(), exposed.tolist(), exposure, slack, state


def test_population_blocks_continue_one_stream(monkeypatch):
    """A chunk's deleted posts drawn in blocks, short last ones included, give
    the arrays and stream state of one block over the whole chunk."""
    cfg = small_config(engine="accelerated", initial_posts=20_000, seed=4)
    total = cfg.total_posts
    chunks = [(i, lo, min(lo + 6_000, total)) for i, lo in enumerate(range(0, total, 6_000))]
    monkeypatch.setattr(lethe.adversary, "_COUNT_BLOCK", 10_000)  # one block per chunk
    assert [len(lethe.adversary._chunk_population(cfg, *c)[2]) for c in chunks] == [1] * 6
    whole = [_population(cfg, *chunk) for chunk in chunks]
    monkeypatch.setattr(lethe.adversary, "_COUNT_BLOCK", 100)  # several and a short one
    blocks = [len(lethe.adversary._chunk_population(cfg, *c)[2]) for c in chunks]
    assert blocks == [10, 9, 9, 8, 4, 1]
    assert [_population(cfg, *chunk) for chunk in chunks] == whole


def _chi_square_p(a: np.ndarray, b: np.ndarray) -> float:
    """p-value of a two-sample chi-square test that histograms a and b come
    from one law (bins empty on both sides are left out)."""
    from scipy.stats import chi2

    keep = (a + b) > 0
    a, b = a[keep], b[keep]
    na, nb = a.sum(), b.sum()
    stat = (((a * math.sqrt(nb / na) - b * math.sqrt(na / nb)) ** 2) / (a + b)).sum()
    return float(chi2.sf(stat, len(a) - 1))


@pytest.mark.parametrize("creations", [32, 10, 6], ids=["growth", "C==D", "shrinking"])
def test_population_has_the_law_of_one_draw_per_post(creations):
    """A binomial per creation day and truncated exponentials for the deleted
    posts only have the law of one exponential per post (the reference in
    tests/oracles.py).  Every post of a config is drawn both ways over seeds
    fixed in advance; summed over the seeds, the deleted counts per creation
    day (in 13 groups of days), the histogram of deletion days and the
    initial posts' exposures agree by two-sample chi-square tests."""
    cfg = small_config(engine="accelerated", initial_posts=20_000, creations_per_day=creations)
    horizon, total = cfg.horizon_days, cfg.total_posts
    created = np.repeat(np.arange(horizon + 1), [cfg.initial_posts] + [creations] * horizon)
    groups = np.r_[0, 1 + np.arange(12) * 31]  # day 0, then 12 groups of 31 days
    tally = {side: np.zeros((3, horizon + 1), dtype=np.int64) for side in ("drawn", "reference")}
    for seed in range(1, 21):
        _, _, blocks, _ = lethe.adversary._chunk_population(
            dataclasses.replace(cfg, seed=seed), 0, 0, total)
        exposure = np.concatenate([e for e, _ in blocks]).astype(np.int64)
        day = horizon - np.concatenate([s for _, s in blocks]).astype(np.int64) // DAY
        reference = hazard_deletion_days(cfg, created, rng("population law", creations, seed))
        gone = reference >= 0
        for side, born, died in (("drawn", day - exposure, day),
                                 ("reference", created[gone], reference[gone])):
            tally[side][0] += np.bincount(born, minlength=horizon + 1)
            tally[side][1] += np.bincount(died, minlength=horizon + 1)
            tally[side][2] += np.bincount((died - born)[born == 0], minlength=horizon + 1)
    drawn, reference = tally["drawn"], tally["reference"]
    by_group = [np.add.reduceat(t[0], groups) for t in (drawn, reference)]
    assert by_group[1].min() > 10
    assert _chi_square_p(*by_group) > 1e-3
    assert _chi_square_p(drawn[1], reference[1]) > 1e-3
    assert _chi_square_p(drawn[2], reference[2]) > 1e-3
    # the totals are sums of independent Bernoullis on both sides
    assert abs(drawn[0].sum() - reference[0].sum()) < 4 * math.sqrt(2 * reference[0].sum())


def test_chunk_counts_blocks_change_no_draw(monkeypatch, mechanism_90):
    """Per-post draws over blocks of a chunk's deleted posts, short last
    blocks included, give every count row and threshold of one block over
    the whole chunk."""
    cfg = small_config(engine="accelerated", initial_posts=20_000, seed=4,
                       thresholds_to_evaluate=(10 * DAY, 30 * DAY, 90 * DAY))
    model = lethe.adversary._build_renewal_model(cfg, *mechanism_90)
    total = cfg.total_posts
    chunks = [(i, lo, min(lo + 6_000, total)) for i, lo in enumerate(range(0, total, 6_000))]

    def counts(deleted):
        monkeypatch.setattr(lethe.adversary, "_COUNT_BLOCK", deleted)
        populations = [lethe.adversary._chunk_population(cfg, *chunk) for chunk in chunks]
        blocks = len(populations[0][2])
        return blocks, [lethe.adversary._chunk_counts(model, p).tolist() for p in populations]

    blocks, whole = counts(10_000)
    assert blocks == 1 and np.array(whole[0]).min() > 0  # every row and threshold is exercised
    blocks, single = counts(1)  # one deleted post per block
    assert blocks > 200 and single == whole
    blocks, grouped = counts(200)
    assert 1 < blocks < 10 and grouped == whole


def _mid_down_per_block(model, population):
    """Deleted posts per block that land mid-down, replaying the stream."""
    survivors, exposed, blocks, stream = population
    generator = np.random.Generator(np.random.PCG64())
    generator.bit_generator.state = stream
    generator.poisson(model.flag_mean @ exposed)
    generator.binomial(survivors, model.first_flag)
    return [np.count_nonzero(generator.random(len(e)) < model.down_fraction) for e, _ in blocks]


def test_chunk_counts_equal_the_plain_reference(monkeypatch, mechanism_90):
    """The engine's counts equal, count for count, those of the plain
    reference, for one model with several thresholds over chunks of small
    blocks: blocks where no deletion lands mid-down, short last blocks and a
    chunk whose only block is empty.  Models where no deletion and where
    every deletion lands mid-down are the extremes."""
    cfg = small_config(engine="accelerated", seed=1,
                       thresholds_to_evaluate=(10 * DAY, 30 * DAY, 90 * DAY))
    model = lethe.adversary._build_renewal_model(cfg, *mechanism_90)
    monkeypatch.setattr(lethe.adversary, "_COUNT_BLOCK", 8)
    total = cfg.total_posts
    chunks = [(0, 0, 6_000), (1, 6_000, total - 320), (2, total - 320, total),
              (5, total - 32, total)]
    populations = [lethe.adversary._chunk_population(cfg, *chunk) for chunk in chunks]
    sizes = [len(e) for _, _, blocks, _ in populations for e, _ in blocks]
    assert sizes[-1] == 0 and [len(e) for e, _ in populations[-1][2]] == [0]
    mid_down = [m for p in populations for m in _mid_down_per_block(model, p)]
    assert any(m == 0 < n for m, n in zip(mid_down, sizes)) and max(mid_down) > 0
    for down_fraction in (model.down_fraction, 0.0, 1.0):
        variant = dataclasses.replace(model, down_fraction=down_fraction)
        for population in populations:
            expected = chunk_counts_reference(variant, population)
            assert lethe.adversary._chunk_counts(variant, population).tolist() == expected.tolist()


def test_sorted_interp_is_np_interp_bit_for_bit():
    """The age lookup in sorted order gives np.interp's values bit for bit on
    the paper-grid 85% / 30 d age table, at uniforms on its breakpoints,
    on its zero-width steps (all at 1), next to them and at random, and on a
    table with zero-width steps inside, short and empty inputs included."""
    cfg = SimulationConfig(initial_posts=1_000_000, creations_per_day=320, deletions_per_day=100,
                           horizon_days=3650, availability_target=0.85, mean_down=3600.0,
                           theta_star_for_tuning=30 * DAY, thresholds_to_evaluate=(30 * DAY,))
    model = lethe.adversary._build_renewal_model(cfg, *build_mechanism(cfg.tuning_spec()))
    steps = model.age_cdf[1:][np.diff(model.age_cdf) == 0]
    assert len(steps) > 0
    inside = np.array([0.0, 0.25, 0.25, 0.5, 0.5, 0.5, 0.75, 1.0])
    for xp, fp in ((model.age_cdf, model.age_values), (inside, np.arange(8.0) ** 2)):
        near = np.nextafter(xp, [[0.0], [1.0]]).ravel()
        points = np.concatenate([xp, near, rng("sorted-interp").random(20_000)])
        for x in (points, xp, steps, points[-3:], points[:0]):
            expected = np.interp(x, xp, fp)
            assert lethe.adversary._sorted_interp(x.copy(), xp, fp).tobytes() == expected.tobytes()


def test_default_workers_are_the_usable_cpus(monkeypatch):
    """Under taskset or a cpuset a process may use fewer CPUs than the
    machine has; without a thread count either engine runs that many."""
    cfg = small_config()
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert cfg.workers == 1
    assert dataclasses.replace(cfg, threads=4).workers == 4
    monkeypatch.delattr(os, "sched_getaffinity")  # platforms without it
    assert cfg.workers == 8


def test_population_memory_is_bounded_by_the_block(mechanism_90):
    """Chunk 0 of the README's fft-table configuration, its population and
    one mechanism's counts, traces under 4 MiB (2.6 MiB measured); drawn as
    whole-chunk arrays it took 8 MiB."""
    cfg = small_config(engine="accelerated", initial_posts=1_000_000, creations_per_day=320,
                       deletions_per_day=100, horizon_days=3650, scale_factor=1e-6, seed=3101,
                       thresholds_to_evaluate=(180 * DAY,))
    model = lethe.adversary._build_renewal_model(cfg, *mechanism_90)
    tracemalloc.start()
    try:
        population = lethe.adversary._chunk_population(cfg, 0, 0, 1_000_000)
        lethe.adversary._chunk_counts(model, population)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_fft_table_honours_the_exact_engine(monkeypatch):
    def no_accelerated(runs):
        raise AssertionError("exact base config ran the accelerated engine")

    monkeypatch.setattr(lethe.adversary, "_run_accelerated", no_accelerated)
    base = small_config(initial_posts=600, creations_per_day=4, deletions_per_day=1,
                        horizon_days=60, thresholds_to_evaluate=(10 * DAY,), threads=1)
    assert _fft_fps(base) == _single_cell_runs(base)


def test_flag_multi_recall_exactly_one(mechanism_90):
    cfg = small_config(engine="accelerated", initial_posts=30_000)
    report = run_simulation(cfg, mechanism=mechanism_90)
    for m in report.per_threshold:
        assert m.fn == 0
        assert m.recall == 1.0


@pytest.mark.parametrize("creations", [32, 10], ids=["growth", "C==D"])
def test_engines_agree_with_analytic_oracle(mechanism_90, creations):
    """Both engines' flag-multi FP within 3 sigma of the renewal expectation,
    with a growing and a constant population (C == D)."""
    up, down = mechanism_90
    cfg = small_config(creations_per_day=creations)
    for engine in ("exact", "accelerated"):
        report = run_simulation(
            dataclasses.replace(cfg, engine=engine), mechanism=mechanism_90
        )
        for m in report.per_threshold:
            expected = analytic_expected_fp(
                cfg, m.threshold_seconds, mechanism=mechanism_90
            )
            # clustering factor: a single heavy phase yields several flags
            qs = [down.ccdf(int(m.threshold_seconds) * k - 1) for k in range(1, 30)]
            clustering = sum((2 * k - 1) * q for k, q in enumerate(qs, 1)) / sum(qs)
            sigma = math.sqrt(clustering * max(expected, 1.0))
            assert abs(m.fp - expected) <= 3 * sigma + 3, (engine, m.threshold_seconds)


def test_scenarios_and_monotonicity(mechanism_90):
    cfg = small_config(
        thresholds_to_evaluate=(20 * DAY, 40 * DAY, 80 * DAY, 160 * DAY),
        initial_posts=20_000,
        engine="accelerated",
        horizon_days=730,
    )
    reports = run_both_scenarios(cfg, mechanism=mechanism_90)
    for scenario in (FLAG_ONCE, FLAG_MULTI):
        per = reports[scenario].per_threshold
        fps = [m.fp for m in per]
        assert all(a >= b for a, b in zip(fps, fps[1:])), scenario  # FP falls with theta
        precisions = [m.precision for m in per]
        assert all(a <= b for a, b in zip(precisions, precisions[1:])), scenario
    multi = reports[FLAG_MULTI].per_threshold
    once = reports[FLAG_ONCE].per_threshold
    for m_multi, m_once in zip(multi, once):
        # Re-flagging counts a superset of events, but this engine draws the
        # two scenarios independently: flag-multi FP is one Poisson draw and
        # flag-once FP a sum of binomials, each with variance at most its
        # mean, so their difference may fall short by chance, within 3 sigma.
        sigma = math.sqrt(m_multi.fp + m_once.fp)
        assert m_multi.fp - m_once.fp >= -3 * sigma, (m_multi.fp, m_once.fp)
    recalls = [m.recall for m in once]
    assert all(a <= b for a, b in zip(recalls, recalls[1:]))  # recall rises with theta


def test_flag_once_recall_rises_with_availability():
    accum = {}
    for availability in (0.85, 0.95):
        recalls = []
        for seed in range(5):
            cfg = small_config(
                availability_target=availability,
                engine="accelerated",
                initial_posts=30_000,
                thresholds_to_evaluate=(30 * DAY,),
                scenario=FLAG_ONCE,
                seed=seed,
            )
            recalls.append(run_simulation(cfg).per_threshold[0].recall)
        accum[availability] = np.mean(recalls)
    assert accum[0.95] > accum[0.85]


def test_flag_multi_tp_matches_closed_form(mechanism_90):
    cfg = small_config(engine="accelerated", initial_posts=50_000,
                       deletions_per_day=40, horizon_days=730)
    report = run_simulation(cfg, mechanism=mechanism_90)
    for m in report.per_threshold:
        assert m.tp == pytest.approx(m.tp_closed_form, rel=0.01)
