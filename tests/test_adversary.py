"""Adversary simulation: closed forms, engines, determinism, monotonicity."""

import dataclasses
import math

import numpy as np
import pytest

import lethe.adversary
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


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(thresholds_to_evaluate=(400 * DAY,))  # beyond horizon
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


def test_exact_engine_population_cap():
    with pytest.raises(ValueError):
        run_simulation(small_config(initial_posts=10**6))


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
    ends, t_del = np.array(ends), np.array(t_del)
    spans = np.where(t_del >= 0, t_del, ends)

    expected = np.zeros((5, len(thetas)), dtype=np.int64)
    for key, end, t, span in zip(keys, ends, t_del, spans):
        toggles = generate_schedule(up, down, 0, int(span), key).toggles
        _exact_post(expected, thetas, toggles[0::2], toggles[1::2],
                    int(t) if t >= 0 else None, int(end))
    counts = np.zeros_like(expected)
    batches = 0
    posts = [(key, 0, span, 0) for key, span in zip(keys, spans.tolist())]
    for first, toggles, bounds in toggle_batches(up, down, posts):
        last = first + len(bounds) - 1
        lethe.adversary._count_flags(
            counts, thetas, toggles, bounds, t_del[first:last], ends[first:last]
        )
        batches += 1
    assert batches > 1
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


def test_fft_table_thread_invariant(monkeypatch):
    monkeypatch.setattr(lethe.adversary, "_CHUNK", 6_000)
    fps = [_fft_fps(_fft_base(threads=threads)) for threads in (1, 2, 3)]
    assert fps[0] == fps[1] == fps[2]


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


def test_engines_agree_with_analytic_oracle(mechanism_90):
    """Both engines' flag-multi FP within 3 sigma of the renewal expectation."""
    up, down = mechanism_90
    cfg = small_config()
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
