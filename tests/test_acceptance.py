"""Full-scale acceptance gate.

One test per numbered release criterion, in order, so ``pytest -v`` prints a
pass/fail line for each.  Million-slot runs are shared through module-scoped
fixtures, and every tolerance is a literal pinned in this file.  A trailing
section re-checks two long-horizon invariants that back the criteria (dual
ascent absorption, the virtual-backlog floor, the constant-based tail
envelope).  Expect a few minutes of wall time.
"""

import math
import time

import numpy as np
import pytest

from lyapnet import dual, model, scenarios, sched
from lyapnet import sim as simulation

# pinned bars, in criterion order
COST_TARGET = 3.75          # five-queue optimal average cost
COST_RTOL = 0.02
RUN_SECONDS_MAX = 60.0
BACKLOG_BAND = (0.5, 2.0)   # multiples of 5 ln^2 V
VIRTUAL_RTOL = 0.05         # around 15 V
DROP_MAX = 1e-4
PLACEHOLDER_RANGE = (4952.0, 4953.0)
EXACT_TOL = 1e-9
TAIL_R2_MIN = 0.9
BETA_SPREAD_MAX = 3.0
P90_RATIO_BAND = (1.4, 2.8)
POWER_SLACK = 10.0          # additive O(1/V) allowance on the power bound
TAIL_FRACTION_MAX = 0.05
ESTIMATE_SLACK = 1.5        # multiples of ln^2 V on estimated placeholders


def _run(**kw):
    return simulation.run(simulation.RunConfig(**kw))


# -- shared heavy runs -------------------------------------------------------


@pytest.fixture(scope="module")
def utility_runs():
    """Greedy and delay-reduced five-queue runs at V=100, three seeds, timed."""
    five = scenarios.by_name("five-queue-chain")
    out = {}
    for alg in ("qla", "fqla-ideal"):
        rows = []
        for seed in range(3):
            t0 = time.perf_counter()
            rep = _run(scenario=five, V=100.0, algorithm=alg,
                       slots=1_000_000, burn_in=10_000, seed=seed)
            rows.append((rep, time.perf_counter() - t0))
        out[alg] = rows
    return out


@pytest.fixture(scope="module")
def fqla_big_runs():
    """Delay-reduced five-queue runs at V in {500, 1000}."""
    five = scenarios.by_name("five-queue-chain")
    return {V: _run(scenario=five, V=float(V), algorithm="fqla-ideal",
                    slots=1_000_000, seed=0) for V in (500, 1000)}


@pytest.fixture(scope="module")
def tail_runs():
    """Greedy five-queue runs at V in {50, 100, 200}, two million slots."""
    five = scenarios.by_name("five-queue-chain")
    return {V: _run(scenario=five, V=float(V), algorithm="qla",
                    slots=2_000_000, seed=0) for V in (50, 100, 200)}


@pytest.fixture(scope="module")
def smooth_runs():
    """Greedy single-queue continuous runs at V in {100, 400, 1000}."""
    contq = scenarios.by_name("single-queue-continuous")
    return {V: _run(scenario=contq, V=float(V), algorithm="qla",
                    slots=1_000_000, seed=0) for V in (100, 400, 1000)}


@pytest.fixture(scope="module")
def general_run():
    """End-to-end run on estimated placeholders at V=500."""
    five = scenarios.by_name("five-queue-chain")
    return _run(scenario=five, V=500.0, algorithm="fqla-general",
                slots=1_000_000, seed=0)


@pytest.fixture(scope="module")
def floor_run():
    """Delay-reduced V=1000 run over the recorded steady window, with trace."""
    five = scenarios.by_name("five-queue-chain")
    return _run(scenario=five, V=1000.0, algorithm="fqla-ideal",
                slots=110_000, burn_in=10_000, seed=0, record_trace=True)


@pytest.fixture(scope="module")
def five_constants():
    """Estimated dual geometry and the attraction constants built from it."""
    five = scenarios.by_name("five-queue-chain")
    geo = dual.estimate_geometry(five)
    return geo, dual.theorem2_constants(five.spec.B, geo.L)


# -- criteria ----------------------------------------------------------------


def test_criterion_01_five_queue_cost_near_optimum(utility_runs):
    for alg, rows in utility_runs.items():
        for rep, secs in rows:
            gap = abs(rep.avg_cost - COST_TARGET)
            assert gap <= COST_RTOL * COST_TARGET, (alg, rep.seed, rep.avg_cost)
            assert secs < RUN_SECONDS_MAX, (alg, rep.seed, secs)


def test_criterion_02_multiplier_search_is_exact():
    five = scenarios.by_name("five-queue-chain")
    for V in (50.0, 100.0):
        want = V * np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        for method in ("closed-form", "numeric"):
            res = dual.find_optimal_multiplier(five, V, method=method)
            assert np.array_equal(res.u_star, want), (V, method, res.u_star)
            assert res.probe_ok
    rep = dual.check_scaling(five, [50.0, 100.0])
    assert rep.ok
    assert max(rep.residuals.values()) == 0.0


def test_criterion_03_delay_reduced_backlog_bands(utility_runs, fqla_big_runs):
    reps = {100: utility_runs["fqla-ideal"][0][0], **fqla_big_runs}
    for V, rep in sorted(reps.items()):
        scale = 5.0 * math.log(V) ** 2
        assert BACKLOG_BAND[0] * scale <= rep.avg_backlog_total \
            <= BACKLOG_BAND[1] * scale, (V, rep.avg_backlog_total)
        virt_gap = abs(rep.avg_virtual_backlog_total - 15.0 * V)
        assert virt_gap <= VIRTUAL_RTOL * 15.0 * V, (V, rep.avg_virtual_backlog_total)


def test_criterion_04_drop_fraction_below_target(fqla_big_runs):
    rep = fqla_big_runs[500]
    assert 0.0 <= rep.drop_fraction < DROP_MAX, rep.drop_fraction


def test_criterion_05_placeholder_level_constant():
    wl = sched.fqla_placeholder_ideal(np.array([5000.0]), 1000.0)
    assert PLACEHOLDER_RANGE[0] <= float(wl[0]) <= PLACEHOLDER_RANGE[1], wl


def test_criterion_06_sandwich_holds_in_every_delay_reduced_run(
        utility_runs, fqla_big_runs, general_run, floor_run):
    # the engine counts per-slot violations of
    # max[W - W_cal, 0] <= U <= max[W - W_cal, 0] + delta_max at 1e-9
    reports = [rep for rep, _ in utility_runs["fqla-ideal"]]
    reports += list(fqla_big_runs.values()) + [general_run, floor_run]
    assert len(reports) >= 6
    for rep in reports:
        assert rep.sandwich_violations == 0, (rep.scenario, rep.V, rep.seed)


def test_criterion_07_subgradient_inequality_and_bound():
    rng = np.random.default_rng(7)
    V = 100.0
    for name in ("five-queue-chain", "single-queue-discrete"):
        spec = scenarios.by_name(name).spec
        hi = 20.0 * V
        for _ in range(1000):
            u = rng.uniform(0.0, hi, size=spec.r)
            u_hat = rng.uniform(0.0, hi, size=spec.r)
            assert dual.check_subgradient_inequality(spec, V, u, u_hat,
                                                     tol=EXACT_TOL)
            g = dual.evaluate_dual(spec, V, u).subgradient
            assert float(np.linalg.norm(g)) <= spec.B + 1e-12


def test_criterion_08_attraction_tail_exponential_with_stable_rate(tail_runs):
    fits = {}
    for V, rep in sorted(tail_runs.items()):
        D = float(np.percentile(rep.deviations, 75.0))
        fit = simulation.fit_tail(simulation.deviation_statistics(rep, D))
        assert fit.beta_hat > 0.0, V
        assert fit.r2 >= TAIL_R2_MIN, (V, fit.r2)
        fits[V] = fit
    betas = sorted(f.beta_hat for f in fits.values())
    assert betas[-1] / betas[0] < BETA_SPREAD_MAX, betas
    # the same runs carry the utility trends: the cost gap shrinks with V
    # while the backlog grows linearly
    gaps = {V: abs(rep.avg_cost - COST_TARGET) for V, rep in tail_runs.items()}
    assert gaps[200] <= gaps[50], gaps
    for V, rep in tail_runs.items():
        assert gaps[V] <= COST_RTOL * COST_TARGET, (V, rep.avg_cost)
        assert abs(rep.avg_backlog_total - 15.0 * V) <= 0.05 * 15.0 * V, V


def test_criterion_09_smooth_deviation_grows_like_sqrt_v(smooth_runs):
    p90 = {V: float(np.percentile(smooth_runs[V].deviations, 90.0))
           for V in (100, 400)}
    ratio = p90[400] / p90[100]
    assert P90_RATIO_BAND[0] <= ratio <= P90_RATIO_BAND[1], (p90, ratio)


def test_criterion_10_absorbing_interval_never_left():
    discq = scenarios.by_name("single-queue-discrete")
    rep = _run(scenario=discq, V=100.0, algorithm="qla", slots=100_000,
               seed=0, record_trace=True)
    ab = simulation.absorption_check(discq, 100.0, rep)
    assert ab.entered_at is not None
    assert ab.violations == 0
    assert ab.ok


def test_criterion_11_unit_step_incremental_matches_greedy():
    spec = scenarios.by_name("five-queue-chain").spec
    V = 100.0
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        i = int(rng.integers(0, len(spec.states)))
        u = rng.uniform(0.0, 15.0 * V, size=spec.r)
        stepped = dual.rism_step(spec, V, u, i, alpha=1.0)
        d = sched.qla_decide(spec, V, i, u)
        direct = model.queue_update(u, d.services, d.arrivals)
        assert np.array_equal(stepped, direct)


def test_criterion_12_continuous_power_near_optimum(smooth_runs):
    V = 1000
    rep = smooth_runs[V]
    assert rep.avg_cost <= math.expm1(0.5) + POWER_SLACK / V, rep.avg_cost
    thresh = math.sqrt(V) * math.log(V)
    frac = float((rep.deviations > thresh).mean())
    assert frac < TAIL_FRACTION_MAX, frac


def test_criterion_13_estimated_placeholders_close_to_ideal(general_run):
    five = scenarios.by_name("five-queue-chain")
    V = 100.0
    lnv2 = math.log(V) ** 2
    ideal = np.maximum(five.u_star(V) - lnv2, 0.0)
    worst = 0.0
    for seed in range(5):
        est = sched.fqla_general_estimate(five, V, T=int(50 * V), K=20, rng=seed)
        worst = max(worst, float(np.abs(est.placeholders - ideal).max()))
    assert worst <= ESTIMATE_SLACK * lnv2, worst
    # end to end, the estimated levels reproduce the V=500 delay and drop bars
    V = 500
    scale = 5.0 * math.log(V) ** 2
    assert BACKLOG_BAND[0] * scale <= general_run.avg_backlog_total \
        <= BACKLOG_BAND[1] * scale, general_run.avg_backlog_total
    virt_gap = abs(general_run.avg_virtual_backlog_total - 15.0 * V)
    assert virt_gap <= VIRTUAL_RTOL * 15.0 * V
    assert general_run.drop_fraction < DROP_MAX, general_run.drop_fraction


def test_criterion_14_per_slot_distance_contract():
    five = scenarios.by_name("five-queue-chain")
    spec = five.spec
    V = 100.0
    rep = _run(scenario=five, V=V, algorithm="qla", slots=100_000, seed=0,
               record_trace=True)
    tr = rep.trace
    tab = model.tables(spec)
    target = five.u_star(V)
    B = spec.B
    for t in range(rep.slots):
        i = int(tr.states[t])
        k = int(tr.actions[t])
        assert model.one_step_distance_contract_check(
            tr.u[t], tab.svc_rows[i][k], tab.arr_rows[i][k], target, B, tol=EXACT_TOL), t


# -- long-horizon invariants backing the criteria ----------------------------


def test_dual_ascent_enters_and_keeps_predicted_ball(five_constants):
    """From starts up to 10V away, fixed-step ascent reaches the ball of
    radius D1 + B around U*_V and never leaves it."""
    five = scenarios.by_name("five-queue-chain")
    V = 100.0
    geo, consts = five_constants
    assert geo.kind == "polyhedral"
    ball = consts.d1 + five.spec.B
    u_star = five.u_star(V)
    rng = np.random.default_rng(7)
    for trial in range(10):
        d = rng.standard_normal(5)
        d /= np.linalg.norm(d)
        u = np.maximum(u_star + d * rng.uniform(0.0, 10.0 * V), 0.0)
        entered = None
        for it in range(3000):
            u = dual.osm_step(five.spec, V, u)
            dist = float(np.linalg.norm(u - u_star))
            if entered is None:
                if dist <= ball:
                    entered = it
            else:
                assert dist <= ball, (trial, it, dist)
        assert entered is not None, trial


def test_virtual_backlog_floor_over_recorded_window(floor_run):
    """Queue 1's virtual backlog never dips below 4952 across the steady
    window of the V=1000 run (the placeholder level is 5000 - ln^2 1000)."""
    assert floor_run.placeholders[0] == pytest.approx(
        5000.0 - math.log(1000.0) ** 2, abs=1e-9)
    w1 = floor_run.trace.w[floor_run.burn_in:, 0]
    assert float(w1.min()) >= 4952.0, float(w1.min())


def test_tail_envelope_from_estimated_constants(tail_runs, five_constants):
    """The measured curve sits under the predicted envelope at m = K1 ln V.

    The attraction constants are loose by construction, so the bound gets a
    factor-10 slack and still holds with a wide margin.
    """
    V = 100
    _, consts = five_constants
    rep = tail_runs[V]
    m_star = consts.k1 * math.log(V)
    p = float((rep.deviations > consts.d1 + m_star).mean())
    assert p <= 10.0 * consts.c1_star / V, (p, consts)
