"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criterion 5 defaults to the documented 100x scale-down of the
large-platform configuration (precision is scale-invariant); set
LETHE_FULL_SCALE=1 to run the full 100M-post version instead.
"""

import dataclasses
import json
import math
import os
import socket
import threading
import time

import numpy as np
import pytest

from lethe._rng import substream
from lethe.adversary import (
    DAY,
    FLAG_MULTI,
    FLAG_ONCE,
    SimulationConfig,
    analytic_expected_fp,
    fft_table,
    run_both_scenarios,
)
from lethe.distributions import make_distribution
from lethe.schedule import generate_schedule, schedule_key
from lethe.server import StoreServer, handle_request
from lethe.store import ManualClock, PostStore
from lethe.tuning import TuningSpec, build_mechanism, mean_up_for_availability, optimal_shape
from lethe.utility import (
    TracePost,
    evaluate_utility,
    generate_synthetic_trace,
)

from conftest import SHAPE_TABLE, utility_within_3_sigma
from oracles import ObservationSummary, expected_utility, likelihood_ratio

HOUR = 3600
YEAR = 365 * DAY


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


# ---------------------------------------------------------------------------


def test_criterion_1_availability_arithmetic():
    """Mean up times 5.7 / 9 / 19 hours for availabilities 0.85 / 0.90 / 0.95."""
    hours = {a: mean_up_for_availability(a, HOUR) / HOUR for a in (0.85, 0.90, 0.95)}
    assert round(hours[0.85], 1) == 5.7
    assert hours[0.90] == pytest.approx(9.0, abs=1e-9)
    assert hours[0.95] == pytest.approx(19.0, abs=1e-9)
    report(f"criterion 1: PASS (mean up hours {[round(h, 4) for h in hours.values()]})")


def test_criterion_2_shape_parameter_table():
    """Shapes strictly decreasing, n*theta constant +-25%, each +-50% of the
    reference column, and locally optimal against x2 / /2 perturbations."""
    shapes = {}
    for days, reference in SHAPE_TABLE.items():
        n = optimal_shape(HOUR, days * DAY)
        shapes[days] = n
        assert 0.5 * reference <= n <= 1.5 * reference, (days, n)

        def ccdf_at(shape, theta=days * DAY):
            d = make_distribution("negative-binomial", HOUR, shape=shape)
            return d.ccdf(int(theta) - 1)

        best = ccdf_at(n)
        assert best >= ccdf_at(2 * n) and best >= ccdf_at(n / 2), days
    values = list(shapes.values())
    assert all(a > b for a, b in zip(values, values[1:]))
    products = [shapes[d] * d for d in SHAPE_TABLE]
    assert max(products) <= 1.25 * min(products)
    report(
        "criterion 2: PASS (n = "
        + ", ".join(f"{d}d:{n:.2e}" for d, n in shapes.items())
        + ")"
    )


def test_criterion_3_lr_versus_shape():
    """Each threshold's tuned shape attains the lowest LR at that threshold,
    and every tuned negative binomial beats zeta over 1-6 months."""
    constant = 9 * HOUR  # geometric up: inverse hazard + 1 = mean
    downs = {
        n: make_distribution("negative-binomial", HOUR, shape=n)
        for n in SHAPE_TABLE.values()
    }
    zeta = make_distribution("zeta", HOUR)
    for days, tuned_n in SHAPE_TABLE.items():
        theta = days * DAY
        lrs = {n: constant / d.ccdf(theta - 1) for n, d in downs.items()}
        assert min(lrs, key=lrs.get) == tuned_n, days
    for t_days in range(30, 181, 10):
        theta = t_days * DAY
        lr_zeta = constant / zeta.ccdf(theta - 1)
        for n, d in downs.items():
            assert constant / d.ccdf(theta - 1) < lr_zeta, (t_days, n)
    report("criterion 3: PASS (tuned shape minimal at its threshold; all below zeta)")


def test_criterion_4_down_duration_mass():
    """negative-binomial(1 h, 6e-4): P(<= 60 s) > 0.99 and pmf(1) = 0.9907."""
    d = make_distribution("negative-binomial", HOUR, shape=6e-4)
    mass_minute = 1.0 - d.ccdf(60)
    assert mass_minute > 0.99
    closed_form = math.exp(6e-4 * math.log(d.p))
    assert d.pmf(1) == pytest.approx(closed_form, rel=1e-10)
    assert d.pmf(1) == pytest.approx(0.9907, abs=1e-3)
    report(
        f"criterion 4: PASS (P(<=60s) = {mass_minute:.5f}, pmf(1) = {d.pmf(1):.5f})"
    )


def _paper_scale_config() -> SimulationConfig:
    if os.environ.get("LETHE_FULL_SCALE"):
        return SimulationConfig(
            initial_posts=100_000_000,
            creations_per_day=32_000,
            deletions_per_day=10_000,
            horizon_days=3650,
            availability_target=0.90,
            mean_down=3600.0,
            theta_star_for_tuning=180 * DAY,
            thresholds_to_evaluate=(180 * DAY,),
            scale_factor=1e-4,
            seed=11,
            engine="accelerated",
        )
    return SimulationConfig(
        initial_posts=1_000_000,
        creations_per_day=320,
        deletions_per_day=100,
        horizon_days=3650,
        availability_target=0.90,
        mean_down=3600.0,
        theta_star_for_tuning=180 * DAY,
        thresholds_to_evaluate=(180 * DAY,),
        scale_factor=1e-6,
        seed=11,
        engine="accelerated",
    )


def test_criterion_5_adversary_precision():
    """Flag-multi precision 0.21 +- 0.05, flag-once 0.35 +- 0.05 at
    (0.90 availability, theta = 180 d); flag-multi recall exactly 1.0."""
    started = time.monotonic()
    reports = run_both_scenarios(_paper_scale_config())
    elapsed = time.monotonic() - started
    multi = reports[FLAG_MULTI].per_threshold[0]
    once = reports[FLAG_ONCE].per_threshold[0]
    assert multi.precision == pytest.approx(0.21, abs=0.05)
    assert once.precision == pytest.approx(0.35, abs=0.05)
    assert multi.recall == 1.0
    assert elapsed < 1800
    report(
        f"criterion 5: PASS (multi precision {multi.precision:.3f}, "
        f"once precision {once.precision:.3f}, multi recall {multi.recall}, "
        f"{elapsed:.0f}s)"
    )


PAPER_FFT_TRILLIONS = {
    (FLAG_ONCE, 0.85, 30): 1.64, (FLAG_ONCE, 0.90, 30): 1.54, (FLAG_ONCE, 0.95, 30): 1.23,
    (FLAG_ONCE, 0.85, 60): 1.45, (FLAG_ONCE, 0.90, 60): 1.24, (FLAG_ONCE, 0.95, 60): 0.83,
    (FLAG_ONCE, 0.85, 90): 1.25, (FLAG_ONCE, 0.90, 90): 1.01, (FLAG_ONCE, 0.95, 90): 0.62,
    (FLAG_ONCE, 0.85, 120): 1.09, (FLAG_ONCE, 0.90, 120): 0.84, (FLAG_ONCE, 0.95, 120): 0.48,
    (FLAG_ONCE, 0.85, 150): 0.95, (FLAG_ONCE, 0.90, 150): 0.71, (FLAG_ONCE, 0.95, 150): 0.40,
    (FLAG_ONCE, 0.85, 180): 0.84, (FLAG_ONCE, 0.90, 180): 0.61, (FLAG_ONCE, 0.95, 180): 0.34,
    (FLAG_MULTI, 0.85, 30): 13.05, (FLAG_MULTI, 0.90, 30): 8.7, (FLAG_MULTI, 0.95, 30): 4.35,
    (FLAG_MULTI, 0.85, 60): 6.39, (FLAG_MULTI, 0.90, 60): 4.26, (FLAG_MULTI, 0.95, 60): 2.13,
    (FLAG_MULTI, 0.85, 90): 4.18, (FLAG_MULTI, 0.90, 90): 2.78, (FLAG_MULTI, 0.95, 90): 1.39,
    (FLAG_MULTI, 0.85, 120): 3.07, (FLAG_MULTI, 0.90, 120): 2.04, (FLAG_MULTI, 0.95, 120): 1.02,
    (FLAG_MULTI, 0.85, 150): 2.40, (FLAG_MULTI, 0.90, 150): 1.60, (FLAG_MULTI, 0.95, 150): 0.80,
    (FLAG_MULTI, 0.85, 180): 1.96, (FLAG_MULTI, 0.90, 180): 1.30, (FLAG_MULTI, 0.95, 180): 0.65,
}


def test_criterion_6_fft_table():
    """All 36 falsely-flagged-count cells within +-20% after scale-up, with
    counts decreasing in threshold and in availability."""
    base = SimulationConfig(
        initial_posts=1_000_000,
        creations_per_day=320,
        deletions_per_day=100,
        horizon_days=3650,
        availability_target=0.90,
        mean_down=3600.0,
        theta_star_for_tuning=180 * DAY,
        thresholds_to_evaluate=(180 * DAY,),
        scale_factor=1e-6,
        seed=11,
        engine="accelerated",
    )
    cells = fft_table(base)
    worst = 0.0
    by_key = {}
    for cell in cells:
        reference = PAPER_FFT_TRILLIONS[(cell.scenario, cell.availability, cell.theta_days)]
        deviation = cell.fp_full_scale / (reference * 1e12) - 1.0
        worst = max(worst, abs(deviation))
        assert abs(deviation) <= 0.20, (cell.scenario, cell.availability, cell.theta_days, deviation)
        by_key[(cell.scenario, cell.availability, cell.theta_days)] = cell.fp_full_scale
    for scenario in (FLAG_ONCE, FLAG_MULTI):
        for availability in (0.85, 0.90, 0.95):
            row = [by_key[(scenario, availability, d)] for d in (30, 60, 90, 120, 150, 180)]
            assert all(a > b for a, b in zip(row, row[1:]))  # decreasing in theta
        for days in (30, 60, 90, 120, 150, 180):
            col = [by_key[(scenario, a, days)] for a in (0.85, 0.90, 0.95)]
            assert all(a > b for a, b in zip(col, col[1:]))  # decreasing in availability
    report(f"criterion 6: PASS (36/36 cells, worst deviation {worst:+.1%})")


def test_criterion_7_engine_cross_validation():
    """Exact and accelerated engines agree on TP/FP within 3 sigma on a
    1e4-post 2-year config; accelerated flag-multi FP within 3 sigma of the
    renewal-theory expectation across the availability x threshold grid."""
    thetas = (30 * DAY, 90 * DAY)
    base = SimulationConfig(
        initial_posts=10_000,
        creations_per_day=32,
        deletions_per_day=10,
        horizon_days=730,
        availability_target=0.90,
        mean_down=3600.0,
        theta_star_for_tuning=30 * DAY,
        thresholds_to_evaluate=thetas,
        scale_factor=1.0,
        seed=0,
        engine="exact",
    )
    mechanism = build_mechanism(base.tuning_spec())
    up, down = mechanism

    def sigma_fp(fp, theta, scenario):
        if scenario == FLAG_ONCE:
            return math.sqrt(max(fp, 1.0))
        qs = [down.ccdf(int(theta) * k - 1) for k in range(1, 30)]
        clustering = sum((2 * k - 1) * q for k, q in enumerate(qs, 1)) / sum(qs)
        return math.sqrt(clustering * max(fp, 1.0))

    exact = run_both_scenarios(base, mechanism=mechanism)
    accel = run_both_scenarios(
        dataclasses.replace(base, engine="accelerated"), mechanism=mechanism
    )
    for scenario in (FLAG_ONCE, FLAG_MULTI):
        for j, theta in enumerate(sorted(thetas)):
            m_e = exact[scenario].per_threshold[j]
            m_a = accel[scenario].per_threshold[j]
            band = 3 * math.hypot(
                sigma_fp(m_e.fp, theta, scenario), sigma_fp(m_a.fp, theta, scenario)
            )
            assert abs(m_e.fp - m_a.fp) <= band, (scenario, theta, m_e.fp, m_a.fp)
            tp_band = 3 * math.hypot(
                max(math.sqrt(m_e.tp), 5.0), max(math.sqrt(m_a.tp), 5.0)
            )
            assert abs(m_e.tp - m_a.tp) <= tp_band, (scenario, theta, m_e.tp, m_a.tp)

    # accelerated vs analytic across the grid
    grid_worst = 0.0
    for availability in (0.85, 0.90, 0.95):
        for days in (30, 60, 90, 120, 150, 180):
            cfg = SimulationConfig(
                initial_posts=50_000,
                creations_per_day=16,
                deletions_per_day=5,
                horizon_days=1825,
                availability_target=availability,
                mean_down=3600.0,
                theta_star_for_tuning=days * DAY,
                thresholds_to_evaluate=(days * DAY,),
                scenario=FLAG_MULTI,
                scale_factor=1.0,
                seed=3,
                engine="accelerated",
            )
            mech = build_mechanism(cfg.tuning_spec())
            rep = run_both_scenarios(cfg, mechanism=mech)[FLAG_MULTI].per_threshold[0]
            expected = analytic_expected_fp(cfg, days * DAY, mechanism=mech)
            band = 3 * sigma_fp(expected, days * DAY, FLAG_MULTI)
            assert abs(rep.fp - expected) <= band, (availability, days, rep.fp, expected)
            grid_worst = max(grid_worst, abs(rep.fp - expected) / expected)
    report(
        f"criterion 7: PASS (engines agree; sim-vs-analytic worst {grid_worst:.2%})"
    )


def test_criterion_8_utility():
    """Synthetic decay trace: utility >= 0.99 at every availability, within
    3 sigma of the closed form, which rises strictly with availability;
    uniform-offset trace recovers availability +-0.005."""
    trace = generate_synthetic_trace(5000, 4.0, rng=substream(88, "accept-trace"))
    utilities = []
    closed = []
    for availability in (0.85, 0.90, 0.95):
        up, down = build_mechanism(TuningSpec(availability, HOUR, 30 * DAY))
        closed.append(expected_utility(up, down))
        result = utility_within_3_sigma(
            trace, up, down, substream(88, "accept-util", availability), closed[-1]
        )
        assert result.utility >= 0.99, (availability, result.utility)
        utilities.append(result.utility)
    assert closed[0] < closed[1] < closed[2]

    up, down = build_mechanism(TuningSpec(0.90, HOUR, 30 * DAY))
    r = substream(88, "uniform-offsets")
    uniform = tuple(
        TracePost(f"u{i}", 0, np.sort(r.integers(0, 10 * YEAR, size=60))) for i in range(2500)
    )
    uniform_result = evaluate_utility(uniform, up, down, substream(88, "uniform-eval"))
    assert uniform_result.utility == pytest.approx(0.90, abs=0.005)
    report(
        "criterion 8: PASS (decay utilities "
        + ", ".join(f"{u:.4f}" for u in utilities)
        + " against closed form "
        + ", ".join(f"{u:.4f}" for u in closed)
        + f"; uniform {uniform_result.utility:.4f})"
    )


def test_criterion_9_mechanism_invariants():
    """Property suite: constant geometric inverse hazard, LR monotonicity and
    up-invariance, straw-man support exhaustion, long-run availability,
    bit-for-bit seed determinism."""
    geom = make_distribution("geometric", 9 * HOUR)
    assert {geom.inverse_hazard(k) for k in (1, 10, 10**3, 10**6)} == {9 * HOUR - 1.0}

    nb = make_distribution("negative-binomial", HOUR, shape=6e-4)

    def lr(dt_u, dt_d):
        return likelihood_ratio(
            geom, nb, ObservationSummary(dt_u, dt_d)
        ).value

    series = [lr(100, dt) for dt in (1, 60, HOUR, DAY, 30 * DAY, 180 * DAY)]
    assert all(a <= b for a, b in zip(series, series[1:]))
    assert len({lr(dt_u, HOUR) for dt_u in (1, 10**3, 10**6)}) == 1

    deg_up = make_distribution("degenerate", 9 * HOUR)
    deg_down = make_distribution("degenerate", HOUR)
    uni_down = make_distribution("discrete-uniform", HOUR)
    assert math.isfinite(
        likelihood_ratio(deg_up, deg_down, ObservationSummary(9 * HOUR, 3600)).value
    )
    assert likelihood_ratio(
        deg_up, deg_down, ObservationSummary(9 * HOUR, 3601)
    ).value == math.inf
    assert math.isfinite(
        likelihood_ratio(deg_up, uni_down, ObservationSummary(9 * HOUR, 7199)).value
    )
    assert likelihood_ratio(
        deg_up, uni_down, ObservationSummary(9 * HOUR, 7200)
    ).value == math.inf

    # long-run observable fraction over 10 years x 1000 posts
    up, down = build_mechanism(TuningSpec(0.90, HOUR, 30 * DAY))
    horizon = 10 * YEAR
    fractions = np.empty(1000)
    secret = substream(9, "frac").bytes(32)
    for i in range(1000):
        s = generate_schedule(up, down, 0, horizon, schedule_key(secret, i))
        cut = s.toggles[s.toggles <= horizon]
        durations = np.diff(np.concatenate([[0], cut, [horizon]]))
        fractions[i] = durations[::2].sum() / horizon
    assert fractions.mean() == pytest.approx(0.90, abs=0.01)

    # bit-for-bit determinism: schedules and both engines
    s1 = generate_schedule(up, down, 0, YEAR, schedule_key(substream(5, "det").bytes(32), 0))
    s2 = generate_schedule(up, down, 0, YEAR, schedule_key(substream(5, "det").bytes(32), 0))
    assert np.array_equal(s1.toggles, s2.toggles)
    cfg = SimulationConfig(
        initial_posts=2000, creations_per_day=8, deletions_per_day=2,
        horizon_days=365, availability_target=0.90, mean_down=3600.0,
        theta_star_for_tuning=30 * DAY, thresholds_to_evaluate=(30 * DAY,),
        seed=4, engine="exact",
    )
    for engine in ("exact", "accelerated"):
        c = dataclasses.replace(cfg, engine=engine)
        a = run_both_scenarios(c, mechanism=(up, down))
        b = run_both_scenarios(c, mechanism=(up, down))
        for scenario in (FLAG_ONCE, FLAG_MULTI):
            ma, mb = a[scenario].per_threshold[0], b[scenario].per_threshold[0]
            assert (ma.tp, ma.fp, ma.fn) == (mb.tp, mb.fp, mb.fn)
    report(
        f"criterion 9: PASS (observable fraction {fractions.mean():.4f}, "
        "determinism bit-for-bit)"
    )


def test_criterion_10_store_black_box(tmp_path):
    """Owner bypass, uniform null, delete permanence, prefix-stable extension,
    per-post linearizability under 1e4 concurrent operations, in under a minute."""
    started = time.monotonic()
    up = make_distribution("degenerate", 9 * HOUR)
    down = make_distribution("degenerate", HOUR)
    clock = ManualClock(0)
    store = PostStore(up, down, seed=5, clock=clock)

    # owner bypass + uniform null
    hidden = store.put("hidden", "owner")
    deleted = store.put("deleted", "owner")
    clock.advance(10)
    store.delete(deleted, "owner")
    clock.set(9 * HOUR + 5)
    assert store.get(hidden, "owner") == "hidden"
    get = lambda pid: handle_request(
        store, json.dumps({"op": "get", "post_id": pid, "token": "x"}).encode()
    )
    assert get(hidden) == get(deleted) == get("nonexistent")

    # delete permanence
    for t in (10 * HOUR, 30 * HOUR, 300 * DAY):
        clock.set(t)
        assert store.get(deleted, "owner") is None

    # prefix-stable lazy extension
    tuned_up, tuned_down = build_mechanism(TuningSpec(0.90, HOUR, 30 * DAY))
    clock2 = ManualClock(0)
    store2 = PostStore(tuned_up, tuned_down, seed=6, clock=clock2)
    post_id = store2.put("content", "tok")
    before = store2.record(post_id).schedule
    probes = np.linspace(0, before.covered_until, 250).astype(int)
    answers = [before.state_at(int(t)) for t in probes]
    clock2.set(200 * DAY)
    store2.run_updater_pass()
    after = store2.record(post_id).schedule
    assert after.covered_until >= clock2.now() + YEAR
    assert [after.state_at(int(t)) for t in probes] == answers

    # randomized concurrent workload, 1e4 operations from 8 TCP clients,
    # with a compaction after every few deletes
    clock3 = ManualClock(0)
    store3 = PostStore(tuned_up, tuned_down, seed=7, clock=clock3, data_dir=tmp_path)
    tokens = {f"p{i}": f"tok{i}" for i in range(64)}
    ids = {name: store3.put(f"content-{name}", token) for name, token in tokens.items()}
    acked = {post_id: threading.Event() for post_id in ids.values()}
    errors, finished = [], []

    def worker(address, worker_id):
        r = np.random.default_rng(worker_id)
        names = list(ids)
        with socket.create_connection(address, timeout=10) as sock:
            fh = sock.makefile("rwb")

            def rpc(payload):
                fh.write(json.dumps(payload).encode() + b"\n")
                fh.flush()
                return json.loads(fh.readline())

            for _ in range(1250):
                name = names[int(r.integers(len(names)))]
                post_id = ids[name]
                roll = r.random()
                if roll < 0.8:
                    was_deleted = acked[post_id].is_set()  # before the get is sent
                    get = {"op": "get", "post_id": post_id, "token": tokens[name]}
                    content = rpc(get)["content"]
                    if was_deleted and content is not None:
                        errors.append(f"read-after-delete {name}")
                    if content is not None and content != f"content-{name}":
                        errors.append(f"torn read {name}")
                else:
                    reply = rpc({"op": "delete", "post_id": post_id, "token": tokens[name]})
                    if reply == {"status": "ok"}:  # else a sibling deleted it first
                        acked[post_id].set()
            finished.append(worker_id)

    server = StoreServer(store3, updater_period=0.005)
    server.serve_background()
    try:
        threads = [threading.Thread(target=worker, args=(server.address, i)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        server.shutdown()
        server.server_close()
        store3.close()
    assert not errors, errors[:5]
    assert len(finished) == 8
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(f"criterion 10: PASS (1e4 concurrent ops linearizable, {elapsed:.1f}s)")
