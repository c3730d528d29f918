import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lyapnet.dual import (
    ConvergenceError,
    check_scaling,
    check_slackness,
    check_subgradient_inequality,
    estimate_geometry,
    evaluate_dual,
    find_optimal_multiplier,
    osm_step,
    per_state_dual,
    per_state_optimum,
    rism_step,
    theorem2_constants,
)
from lyapnet.model import (
    ActionRecord,
    ContinuousActions,
    NetworkSpec,
    StateSpec,
    ValidationError,
    queue_update,
    tables,
)
from lyapnet.scenarios import ScenarioHandle, single_queue_continuous
from lyapnet.sched import qla_decide


# -- dual evaluation ---------------------------------------------------------


def test_evaluate_dual_by_hand(tiny_spec):
    # state 0 terms: {0, V + 2 u1 - u2}; state 1: {V/2 + u2, 2V - 2 u1 - 2 u2}
    V = 4.0
    u = np.array([1.0, 3.0])
    ev = evaluate_dual(tiny_spec, V, u)
    assert ev.value == 0.25 * 0.0 + 0.75 * min(0.5 * V + 3.0, 2.0 * V - 8.0)
    assert ev.argmin_actions == [0, 1]
    np.testing.assert_array_equal(
        ev.subgradient, 0.25 * np.array([0.0, 0.0]) + 0.75 * np.array([-2.0, -2.0]))


def test_evaluate_dual_matches_brute_force(five):
    """Enumerating each state's action records gives evaluate_dual's value and subgradient."""
    spec = five.spec
    V = 80.0
    rng = np.random.default_rng(21)
    for _ in range(50):
        u = rng.uniform(0.0, 8.0 * V, spec.r)
        value = 0.0
        G = np.zeros(spec.r)
        for st in spec.states:
            best, best_gmb = None, None
            for act in st.actions:
                gmb = act.arrivals - act.services
                term = V * act.cost + float(gmb @ u)
                if best is None or term < best - 1e-12:
                    best, best_gmb = term, gmb
            value += st.prob * best
            G += st.prob * best_gmb
        ev = evaluate_dual(spec, V, u)
        assert ev.value == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(ev.subgradient, G, atol=1e-12)


@pytest.mark.parametrize("name", ["five", "two", "discq", "contq"])
def test_per_state_dual_sums_to_evaluate_dual(name, request):
    """Each state's term is minimized by the greedy decision, and the terms
    summed in state order, weighted by p_i, give evaluate_dual's value and
    minimizers bit for bit."""
    spec = request.getfixturevalue(name).spec
    rng = np.random.default_rng(22)
    for _ in range(200):
        V = rng.uniform(0.5, 200.0)
        u = rng.uniform(0.0, 8.0 * V, spec.r)
        value, actions = 0.0, []
        for i, st in enumerate(spec.states):
            term, k = per_state_dual(spec, V, i, u)
            assert k == qla_decide(spec, V, i, u).action
            value += st.prob * term
            actions.append(k)
        ev = evaluate_dual(spec, V, u)
        assert value == ev.value
        assert actions == ev.argmin_actions


def test_evaluate_dual_rejects_bad_multipliers(tiny_spec):
    with pytest.raises(ValueError, match="shape"):
        evaluate_dual(tiny_spec, 1.0, [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        evaluate_dual(tiny_spec, 1.0, [1.0, -0.5])
    for u in ([math.nan, math.nan], [math.inf, 0.0], [0.0, -math.inf]):
        with pytest.raises(ValueError, match="multiplier: must be 2 finite, nonnegative"):
            evaluate_dual(tiny_spec, 1.0, u)
    with pytest.raises(ValueError, match="finite"):
        rism_step(tiny_spec, 1.0, [math.nan, 1.0], 0)
    with pytest.raises(ValueError, match="V: must be positive"):
        evaluate_dual(tiny_spec, 0.0, [1.0, 1.0])
    with pytest.raises(ValueError, match="V: must be positive and finite"):
        evaluate_dual(tiny_spec, math.inf, [1.0, 1.0])


def _one_state_call(fn, spec, V, state, u):
    if fn == "per_state_dual":
        return per_state_dual(spec, V, state, u)
    if fn == "per_state_optimum":
        return per_state_optimum(spec, V, state)
    if fn == "rism_step":
        return rism_step(spec, V, u, state)
    return qla_decide(spec, V, state, u)


# each id reads "field message", without the colon the error puts after the field
@pytest.mark.parametrize("fn,name,V,state,u,msg", [
    ("per_state_dual", "two", 1.0, -1, [1.0, 1.0], "state: must be an integer >= 0, got -1"),
    ("per_state_dual", "two", 0.0, 0, [1.0, 1.0], "V: must be positive and finite"),
    ("per_state_dual", "two", 1.0, 0, [1.0, -1.0], "multiplier: must be 2 finite"),
    ("per_state_optimum", "discq", 1.0, -1, None, "state: must be an integer >= 0, got -1"),
    ("per_state_optimum", "discq", 1.0, 2, None, "state must be below 2, got 2"),
    ("per_state_optimum", "discq", math.nan, 0, None, "V: must be positive and finite"),
    ("rism_step", "two", 1.0, 8, [1.0, 1.0], "state must be below 8, got 8"),
    ("rism_step", "two", math.inf, 0, [1.0, 1.0], "V: must be positive and finite"),
    ("rism_step", "two", 1.0, 1.0, [1.0, 1.0], "state: must be an integer"),
    ("qla_decide", "two", 0.0, 0, [1.0, 1.0], "V: must be positive and finite"),
    ("qla_decide", "two", 1.0, 0, [math.nan, 1.0], "multiplier: must be 2 finite"),
    ("qla_decide", "two", 1.0, 0, [1.0, -0.5], "multiplier: must be 2 finite"),
    ("qla_decide", "two", 1.0, True, [1.0, 1.0], "state: must be an integer"),
    ("qla_decide", "discq", 1.0, 0, [1.0, 1.0], r"multiplier: must have shape \(1,\)"),
], ids=lambda v: v.replace(": ", " ", 1) if isinstance(v, str) else None)
def test_one_state_calls_check_v_state_and_u(fn, name, V, state, u, msg, request):
    spec = request.getfixturevalue(name).spec
    with pytest.raises(ValueError, match=msg):
        _one_state_call(fn, spec, V, state, u)


@pytest.mark.parametrize("fn", ["evaluate_dual", "per_state_dual", "per_state_optimum",
                                "rism_step", "qla_decide"])
def test_overflowing_v_cost_is_rejected_naming_the_cost(fn):
    """Every entry point checks V * cost: one multiply clears V = 1, and at
    V = 100 the search names the first overflowing entry, in state 1."""
    act = ActionRecord(0.0, [1.0], [0.0])
    spec = NetworkSpec("overflow", 1, 1.0, [
        StateSpec(0.5, [act, ActionRecord(1.0, [0.0], [1.0])]),
        StateSpec(0.5, [act, ActionRecord(1e308, [0.0], [1.0])])])

    def call(V):
        if fn == "evaluate_dual":
            return evaluate_dual(spec, V, [5.0])
        return _one_state_call(fn, spec, V, 0, [5.0])

    call(1.0)
    with pytest.raises(ValidationError) as err:
        call(100.0)
    assert str(err.value) == ("states[1].actions[1].cost: V * cost is not finite at V=100.0 "
                              "(cost 1e+308)")


def test_concavity_audit(five):
    spec = five.spec
    V = 37.5
    rng = np.random.default_rng(5)
    for _ in range(500):
        u1 = rng.uniform(0.0, 8.0 * V, spec.r)
        u2 = rng.uniform(0.0, 8.0 * V, spec.r)
        lam = rng.random()
        mid = evaluate_dual(spec, V, lam * u1 + (1.0 - lam) * u2).value
        lo = lam * evaluate_dual(spec, V, u1).value \
            + (1.0 - lam) * evaluate_dual(spec, V, u2).value
        assert mid >= lo - 1e-9


@pytest.mark.parametrize("name", ["five", "discq"])
def test_lipschitz_and_subgradient_bound(name, request):
    handle = request.getfixturevalue(name)
    spec = handle.spec
    B = spec.B
    V = 60.0
    rng = np.random.default_rng(6)
    for _ in range(500):
        u = rng.uniform(0.0, 8.0 * V, spec.r)
        u_hat = rng.uniform(0.0, 8.0 * V, spec.r)
        ev = evaluate_dual(spec, V, u)
        q_hat = evaluate_dual(spec, V, u_hat).value
        assert np.linalg.norm(ev.subgradient) <= B + 1e-12
        assert abs(q_hat - ev.value) <= B * np.linalg.norm(u_hat - u) + 1e-9
        assert check_subgradient_inequality(spec, V, u, u_hat)


def test_scaling_identity(five):
    """q at level V equals V times q at level 1 on the shrunk multiplier."""
    spec = five.spec
    rng = np.random.default_rng(7)
    for _ in range(100):
        V = float(rng.uniform(1.0, 500.0))
        u = rng.uniform(0.0, 8.0 * V, spec.r)
        qv = evaluate_dual(spec, V, u).value
        q1 = evaluate_dual(spec, 1.0, u / V).value
        assert qv == pytest.approx(V * q1, rel=1e-9)


def test_check_scaling_closed_forms(five):
    rep = check_scaling(five, [50.0, 100.0])
    assert rep.ok
    assert rep.residuals == {50.0: 0.0, 100.0: 0.0}
    np.testing.assert_array_equal(rep.u_star_1, [5.0, 4.0, 3.0, 2.0, 1.0])


# -- subgradient iterations --------------------------------------------------


def _balanced_spec():
    """Single state whose only action has arrivals equal to services."""
    return NetworkSpec("flat", 2, 1.0, [
        StateSpec(1.0, [ActionRecord(1.0, [1.0, 0.5], [1.0, 0.5])]),
    ])


def test_osm_step_zero_subgradient_fixed_point():
    spec = _balanced_spec()
    u = np.array([3.0, 4.0])
    np.testing.assert_array_equal(osm_step(spec, 10.0, u), u)


def test_osm_step_projects_to_orthant(tiny_spec):
    ev = evaluate_dual(tiny_spec, 1.0, [0.0, 0.0])
    stepped = osm_step(tiny_spec, 1.0, [0.0, 0.0], alpha=2.0)
    np.testing.assert_array_equal(
        stepped, np.maximum(2.0 * ev.subgradient, 0.0))


def test_osm_stays_near_single_state_optimum():
    """Started exactly on the dual's kink, iterates hover within B."""
    spec = NetworkSpec("bounce", 1, 1.0, [
        StateSpec(1.0, [ActionRecord(0.0, [0.5], [0.0]),
                        ActionRecord(1.0, [0.5], [1.0])]),
    ])
    V = 25.0
    u_opt = np.array([V])  # serve-or-idle terms 0.5u and V - 0.5u tie here
    u = u_opt.copy()
    widest = 0.0
    for _ in range(200):
        u = osm_step(spec, V, u)
        dist = float(np.linalg.norm(u - u_opt))
        assert dist <= spec.B + 1e-9
        widest = max(widest, dist)
    assert widest > 0.0  # it bounces, not a fixed point


def test_per_state_optimum_levels(discq):
    """Largest per-state maximizers: finite breakpoint vs saturating rise."""
    V = 100.0
    assert per_state_optimum(discq.spec, V, 0) == pytest.approx(
        V * math.expm1(0.25) / 0.25)
    assert per_state_optimum(discq.spec, V, 1) == math.inf


def test_per_state_optimum_counts_a_tiny_finite_drain():
    """A table whose only action serves 1.8e-261 packets per slot drains the
    queue: its dual term falls from u = 0, so the optimum is 0, not +inf."""
    spec = NetworkSpec("tiny-drain", 1, 1.0, [StateSpec(1.0, [ActionRecord(1.0, [0.0], [1.8e-261])])])
    assert per_state_optimum(spec, 10.0, 0) == 0.0


def _state_optimum_200_steps(fam, V):
    """The bracket-and-bisect loop per_state_optimum ran before its shared helper."""
    a = float(fam.arrivals(fam.dual_argmin(V, np.zeros(1)))[0])

    def rate(u1):
        return float(fam.services(fam.dual_argmin(V, np.array([u1])))[0])

    hi = max(1.0, V)
    for _ in range(200):
        if rate(hi) > a + 1e-12:
            break
        hi *= 2.0
        if hi > 1e15:
            return math.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate(mid) <= a + 1e-12:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("mu_max", [0.6, 1.0, 1.5, 2.0, 4.0])
def test_continuous_state_optimum_keeps_the_200_step_bits(mu_max):
    spec = single_queue_continuous(mu_max).spec
    for V in (0.01, 0.5, 1.0, 3.7, 50.0, 100.0, 1e5):
        for i, st in enumerate(spec.states):
            want = _state_optimum_200_steps(st.actions, V)
            got = per_state_optimum(spec, V, i)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (V, i)


def test_rism_unit_step_is_greedy_queue_update(five):
    spec = five.spec
    rng = np.random.default_rng(8)
    V = 100.0
    for _ in range(500):
        u = rng.uniform(0.0, 8.0 * V, spec.r)
        state = int(rng.integers(spec.n_states))
        dec = qla_decide(spec, V, state, u)
        expected = queue_update(u, dec.services, dec.arrivals)
        got = rism_step(spec, V, u, state)
        np.testing.assert_array_equal(got, expected)


def test_rism_fractional_step_by_hand(tiny_spec):
    # state 1 at u = (0, 10): action 0 term 0.5V + 10, action 1 term 2V - 20;
    # action 1 wins for V = 4.  Step alpha scales both traffic vectors.
    u = np.array([0.0, 10.0])
    out = rism_step(tiny_spec, 4.0, u, 1, alpha=0.5)
    np.testing.assert_array_equal(
        out, np.maximum(u - 0.5 * np.array([2.0, 2.0]), 0.0) + 0.5 * np.array([0.0, 0.0]))


# -- multiplier search -------------------------------------------------------


def test_find_optimal_multiplier_validation(five, tiny_spec):
    with pytest.raises(ValueError, match="unknown method"):
        find_optimal_multiplier(five, 10.0, method="grid")
    with pytest.raises(ValueError, match="no registered closed form"):
        find_optimal_multiplier(tiny_spec, 10.0, method="closed-form")


def test_lp_search_off_grid_v_matches_closed_form(five):
    V = 3.7
    res = find_optimal_multiplier(five, V, method="numeric")
    assert res.probe_ok
    assert np.abs(res.u_star - five.u_star(V)).max() <= 1e-12 * V


@pytest.mark.parametrize("name,factor", [
    *itertools.product(("two", "five", "discq", "contq"), (0.5, 0.999, 1.001)),
    ("five", 0.6),
])
@pytest.mark.parametrize("V", [1.0, 50.0, 100.0])
def test_probe_flags_a_closed_form_off_the_maximizer(name, factor, V, request):
    """Under method="auto" the registered U*_V gets probe_ok True, and a closed
    form at factor * U*_V gets False, even 0.1% away."""
    handle = request.getfixturevalue(name)
    assert find_optimal_multiplier(handle, V).probe_ok
    wrong = dataclasses.replace(handle, u_star=lambda V: factor * handle.u_star(V))
    res = find_optimal_multiplier(wrong, V)
    assert res.method == "closed-form"
    np.testing.assert_array_equal(res.u_star, factor * handle.u_star(V))
    assert res.value < find_optimal_multiplier(handle, V, method="numeric").value
    assert not res.probe_ok


def test_lp_search_overloaded_queue_raises():
    # one packet arrives every slot but at most half a packet is served
    spec = NetworkSpec("overloaded", 1, 1.0, [
        StateSpec(1.0, [ActionRecord(0.0, [1.0], [0.0]),
                        ActionRecord(1.0, [1.0], [0.5])]),
    ])
    with pytest.raises(ConvergenceError):
        find_optimal_multiplier(spec, 10.0, method="numeric")


def test_continuous_search_needs_one_queue():
    fam = ContinuousActions(
        lo=0.0, hi=1.0, cost=lambda x: x,
        arrivals=lambda x: np.array([0.5, 0.0]),
        services=lambda x: np.array([x, x]),
        dual_argmin=lambda V, u: 1.0 if float(u.sum()) > V else 0.0)
    spec = NetworkSpec("two-queue-continuous", 2, 1.0, [StateSpec(1.0, fam)])
    with pytest.raises(ValueError, match="needs one queue"):
        find_optimal_multiplier(spec, 10.0, method="numeric")
    # A closed form there has no search to certify it: it comes back unchecked.
    # (V, 0) is in fact a maximizer: q = 0.5 u_1 + min(0, V - u_1 - u_2).
    handle = ScenarioHandle(spec, u_star=lambda V: np.array([V, 0.0]))
    res = find_optimal_multiplier(handle, 10.0)
    assert res.method == "closed-form" and not res.probe_ok
    np.testing.assert_array_equal(res.u_star, [10.0, 0.0])
    assert res.value == evaluate_dual(spec, 10.0, res.u_star).value == 5.0


def test_continuous_search_overloaded_queue_raises():
    # one packet arrives every slot but at most half a packet is served
    fam = ContinuousActions(
        lo=0.0, hi=0.5, cost=lambda x: x,
        arrivals=lambda x: np.array([1.0]),
        services=lambda x: np.array([x]),
        dual_argmin=lambda V, u: 0.5 if float(u[0]) > V else 0.0)
    spec = NetworkSpec("overloaded-continuous", 1, 1.0, [StateSpec(1.0, fam)])
    with pytest.raises(ConvergenceError):
        find_optimal_multiplier(spec, 10.0, method="numeric")


def test_import_leaves_scipy_optimize_unloaded():
    """scipy.optimize costs several times the package import; load it lazily."""
    import lyapnet

    src = os.path.dirname(os.path.dirname(lyapnet.__file__))
    code = "import sys, lyapnet; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


_GEMV_CHILD = """
import numpy as np

rng = np.random.default_rng(20261018)
for trial in range(400):
    m, n, R = (int(v) for v in rng.integers(1, 13, size=3))
    if trial % 2:
        stack = rng.integers(-1, 2, size=(R, m, n)).astype(float)
    else:
        stack = rng.standard_normal((R, m, n))
    xs = np.abs(rng.standard_normal((R, n))) * 10.0 ** rng.integers(-2, 4)
    batched = np.matmul(stack, xs[:, :, None])[:, :, 0]
    for k in range(R):
        a, x = stack[k], xs[k]  # the operands batched[k] was computed from
        want = a.dot(x)
        for got in (a @ x, batched[k]):
            assert got.dtype == want.dtype and np.array_equal(got, want), (trial, k)
print("ok")
"""


@pytest.mark.parametrize("coretype", ["SkylakeX", "Haswell", "Sandybridge", "Prescott"])
def test_dot_and_matmul_share_the_gemv_kernel(coretype):
    """``A.dot(x)`` (the loop's score), ``A @ x`` and batched matmul rows agree bit for bit.

    Each OpenBLAS kernel runs in a child process; only the child's
    environment names it.
    """
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    out = subprocess.run([sys.executable, "-c", _GEMV_CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "ok"


# -- geometry and constants --------------------------------------------------


def test_estimate_geometry_polyhedral(five):
    geo = estimate_geometry(five)
    assert geo.kind == "polyhedral"
    assert geo.L > 0.0
    assert geo.radii == (0.5, 1.0)
    assert geo.n_directions == 64


def test_estimate_geometry_discrete_is_polyhedral_with_its_exact_modulus(discq):
    """A finite table's dual is piecewise linear, though its decay ratios cross a kink.

    U*_1 = 2 (e^(3/4) - e^(1/4)) ties the rates 1/4 and 3/4, so q falls
    at slope 1/4 on both sides of it, the exact modulus.  At radius 1 the
    probes cross a second kink, so the ratios differ across radii (0.25
    against 0.3152) without any curvature.
    """
    geo = estimate_geometry(discq)
    assert geo.kind == "polyhedral"
    assert geo.L == 0.25
    assert geo.ratios[1] > geo.ratios[0]


def test_estimate_geometry_smooth(contq):
    geo = estimate_geometry(contq)
    assert geo.kind == "smooth"
    assert geo.L > 0.0


def test_theorem2_constants_formulas():
    B, L = 3.0, 0.5
    tc = theorem2_constants(B, L)
    assert tc.d1 == pytest.approx(2.0 * B * B / L + L / 4.0)
    assert tc.k1 == pytest.approx((B * B + B * L / 6.0) / (L / 2.0))
    assert tc.beta_star == pytest.approx(1.0 / tc.k1)
    assert tc.c1_star == pytest.approx(
        8.0 * (B * B + B * L / 6.0) * math.exp(L / (B + L / 6.0)) / (L * L))
    assert tc.d_smooth is None
    with_v = theorem2_constants(B, L, V=100.0)
    assert with_v.d_smooth == pytest.approx(
        (math.sqrt(100.0) + math.sqrt(100.0 + 4.0 * B * B * L * 100.0)) / (2.0 * L))


def test_theorem2_constants_validation():
    with pytest.raises(ValueError, match="L must be positive"):
        theorem2_constants(3.0, 0.0)
    with pytest.raises(ValueError, match="B >= L"):
        theorem2_constants(1.0, 2.0)
    with pytest.raises(ValueError, match="V: must be positive"):
        theorem2_constants(3.0, 0.5, V=-1.0)


# -- slackness certificate ---------------------------------------------------


def test_slackness_witness_is_verifiable(five):
    spec = five.spec
    res = check_slackness(spec, 0.01)
    assert res.feasible
    assert res.margin >= 0.01
    tab = tables(spec)
    drift = np.zeros(spec.r)
    for i, st in enumerate(spec.states):
        theta = res.witness[i]
        assert theta.shape == (len(st.actions),)
        assert (theta >= -1e-9).all()
        assert float(theta.sum()) == pytest.approx(1.0, abs=1e-9)
        drift += st.prob * (theta @ (-tab.sma[i]))
    assert (drift <= -res.margin + 1e-9).all()


def test_slackness_infeasible_at_large_epsilon(five):
    res = check_slackness(five.spec, 10.0)
    assert not res.feasible
    assert res.margin < 10.0


def test_slackness_validation(five, contq):
    with pytest.raises(ValueError, match="epsilon"):
        check_slackness(five.spec, 0.0)
    with pytest.raises(ValueError, match="finite"):
        check_slackness(contq.spec, 0.1)
