"""Lagrangian dual machinery for the deterministic scheduling problem.

For a scenario with state probabilities p_i, the dual of the deterministic
problem at penalty weight V is the concave function

    q(u) = sum_i p_i min_x [ V f(s_i, x) + u . (g(s_i, x) - b(s_i, x)) ]

over multiplier vectors u >= 0, where g are arrival maps and b service
maps.  The minimizing action in state s_i at multiplier u is exactly the
greedy per-slot decision at backlog u, which is what ties the dual's
geometry to the backlog process: the backlog vector behaves like a noisy
subgradient iterate and concentrates near the dual maximizer U*_V.

This module evaluates q and its subgradient, runs deterministic (OSM) and
randomized incremental (RISM) subgradient steps, locates U*_V, estimates
the modulus of the dual near it (polyhedral for finite action tables,
smooth for continuous families), checks the structural assumptions
(slackness, scaling, subgradient inequality), and computes the
attraction-theorem constants.

U*_V is found by one exact LP when every state has a finite action table
(q is then piecewise-linear and concave).  A continuous action family on
one queue is bisected on the sign of the subgradient, which is
nonincreasing in u because q is concave; continuous families on r > 1
queues have no numeric search.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import ContinuousActions, NetworkSpec, ValidationError, _Record, tables
from .scenarios import ScenarioHandle, as_handle

__all__ = [
    "DualEval",
    "MultiplierResult",
    "GeometryEstimate",
    "TheoremConstants",
    "ScalingReport",
    "SlacknessResult",
    "ConvergenceError",
    "evaluate_dual",
    "per_state_dual",
    "per_state_optimum",
    "osm_step",
    "rism_step",
    "find_optimal_multiplier",
    "check_scaling",
    "check_subgradient_inequality",
    "check_slackness",
    "estimate_geometry",
    "theorem2_constants",
]


class ConvergenceError(RuntimeError):
    """Multiplier search failed: the dual is unbounded or the LP did not solve."""


class DualEval(_Record):
    """q(u), one subgradient, and the per-state minimizers behind them."""

    value: float
    subgradient: np.ndarray
    argmin_actions: list


class MultiplierResult(_Record):
    u_star: np.ndarray
    value: float
    method: str  # "closed-form" | "numeric"
    iterations: int
    probe_ok: bool


class GeometryEstimate(_Record):
    """Local shape of q at V=1 near its maximizer.

    ``kind`` follows from the action set: "polyhedral" when every state
    has a finite action table (q is then piecewise linear), with L the
    minimum sampled decay ratio (q(U*) - q(U)) / ||U - U*||, else "smooth",
    with L fitted from quadratic decay.  ``ratios`` holds the minimum
    linear decay ratio at each radius (``radii`` = (0.5, 1)) over the 64
    directions (``n_directions``) for both kinds.  A minimum over sampled
    directions is an upper estimate of the true modulus, not a guaranteed
    valid one: on the five-queue chain L reads 0.1608 against the exact
    1/(4 sqrt 5) = 0.1118.
    """

    kind: str
    L: float
    ratios: tuple[float, float]
    radii: tuple[float, float]
    n_directions: int


class TheoremConstants(_Record):
    """Attraction constants for a polyhedral dual with modulus L.

    Built with eta = L/2 and the i.i.d. state specialization (nu = 0,
    T_nu = 1): D1 = 2B^2/L + L/4, K1 = (B^2 + BL/6)/(L/2),
    c1* = 8 (B^2 + BL/6) e^(L/(B + L/6)) / L^2, beta* = 1/K1.
    ``d_smooth`` is the smooth-case drift distance, present when V is
    supplied: D = (sqrt(V) + sqrt(V + 4 B^2 L V)) / (2L).
    """

    B: float
    L: float
    d1: float
    k1: float
    c1_star: float
    beta_star: float
    d_smooth: float | None = None


class ScalingReport(_Record):
    """Residuals of the multiplier scaling identity U*_V = V U*_1."""

    u_star_1: np.ndarray
    residuals: dict[float, float]
    tol: float
    ok: bool


class SlacknessResult(_Record):
    """LP certificate for average service slack epsilon.

    ``witness`` is a per-state distribution over actions whose mean
    arrival-minus-service vector is <= -margin in every coordinate.
    """

    feasible: bool
    epsilon: float
    margin: float
    witness: list[np.ndarray]


# -- per-state selection -----------------------------------------------------
#
# One canonical score computation, _finite_argmin, is shared by dual
# evaluation, the one-shot greedy decision, RISM and the single-run
# simulation loop (sim._loop at R = 1), so their selections agree bit for
# bit; batched runs score with sim._stacked_step's stacked matmul, which
# gave the gemv's bits in the run_many and warmup property tests under the
# SkylakeX, Haswell, Sandybridge and Prescott OpenBLAS kernels.  It scores with
# ``sma_i.dot(u)``, the same BLAS gemv call as ``sma_i @ u`` without the
# matmul ufunc's dispatch, and takes the first maximum of the rounded
# scores.  Rounding can separate scores that tie in exact arithmetic and
# can order near-ties wrongly, so an exact tie may go to a higher action
# index: in a 20k-slot five-queue fqla-ideal run at V=100, seed 0, 481
# of the 2242 exact-tie slots did, and in 100 slots the chosen action was
# not an exact maximizer at all.  The gemv's summation order still
# depends on the BLAS kernel chosen at run time, and on some kernels
# (Prescott) on the operands' 16-byte alignment, so exact ties, and the
# golden digests, are only reproducible on one kernel family (ROADMAP
# item 2).


def _finite_argmin(sma_i: np.ndarray, vcost_i: np.ndarray, u: np.ndarray) -> int:
    """Index maximizing u . (b - g) - V f over one state's table rows."""
    score = sma_i.dot(u)
    score -= vcost_i
    return int(score.argmax())


def _state_argmin(spec: NetworkSpec, V: float, i: int, u: np.ndarray):
    """Return (action, cost, arrivals, services) minimizing the state term."""
    st = spec.states[i]
    if isinstance(st.actions, ContinuousActions):
        fam = st.actions
        x = float(fam.dual_argmin(V, u))
        return x, float(fam.cost(x)), fam.arrivals(x), fam.services(x)
    tab = tables(spec)
    k = _finite_argmin(tab.sma[i], V * tab.cost[i], u)
    return k, float(tab.cost[i][k]), tab.arr_rows[i][k], tab.svc_rows[i][k]


def _levels(name: str, x, r: int) -> np.ndarray:
    """x as r finite, nonnegative floats; a ValidationError naming ``name`` otherwise."""
    v = np.asarray(x, dtype=float)
    if v.shape != (r,):
        raise ValidationError(name, f"must have shape ({r},), got {v.shape}")
    if not (np.isfinite(v) & (v >= 0)).all():
        raise ValidationError(name, f"must be {r} finite, nonnegative levels, got {v}")
    return v


def _check_V(V) -> None:
    if isinstance(V, (bool, np.bool_)) or not (V > 0 and math.isfinite(V)):
        raise ValidationError("V", f"must be positive and finite, got {V!r}")


def _integer(name: str, x, lo: int) -> int:
    """x as an int of at least lo (a bool is none); a ValidationError naming ``name`` otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < lo:
        raise ValidationError(name, f"must be an integer >= {lo}, got {x!r}")
    return int(x)


def _one_state(spec: NetworkSpec, V, state, u=None) -> "np.ndarray | None":
    """Check a one-state call's V, state index and multiplier u (when given); return u."""
    _check_V(V)
    if _integer("state", state, 0) >= spec.n_states:
        raise ValueError(f"state must be below {spec.n_states}, got {state!r}")
    return None if u is None else _levels("multiplier", u, spec.r)


def evaluate_dual(spec: NetworkSpec, V: float, u) -> DualEval:
    """Evaluate q(u) with a subgradient.

    The subgradient is G_j = sum_i p_i (g_j - b_j) at the per-state
    minimizers; its Euclidean norm never exceeds B.
    """
    u = _levels("multiplier", u, spec.r)
    _check_V(V)
    value = 0.0
    G = np.zeros(spec.r)
    actions = []
    for i, st in enumerate(spec.states):
        k, cost, arr, svc = _state_argmin(spec, V, i, u)
        gmb = arr - svc
        value += st.prob * (V * cost + float(gmb @ u))
        G += st.prob * gmb
        actions.append(k)
    return DualEval(value, G, actions)


def per_state_dual(spec: NetworkSpec, V: float, state: int, u) -> tuple[float, "int | float"]:
    """Minimum and minimizer of the single-state dual term at multiplier u."""
    u = _one_state(spec, V, state, u)
    k, cost, arr, svc = _state_argmin(spec, V, state, u)
    return V * cost + float((arr - svc) @ u), k


def per_state_optimum(spec: NetworkSpec, V: float, state: int) -> float:
    """Largest maximizer of the single-queue per-state dual over u >= 0.

    The per-state dual is concave in the scalar multiplier; below its
    largest maximizer no minimizing action can decrease the backlog, which
    is what makes the absorbing interval work.  Returns +inf when the
    function never starts decreasing (the state only pushes the backlog
    up).  It is the last float u at which the state's minimizing action,
    as _state_argmin picks it, does not drain the queue (service <= arrival,
    + 1e-12 on continuous families); the minimizer's net drain is
    nondecreasing in u, so that set is an interval and bisection finds its
    end, for finite tables and continuous families alike.
    """
    if spec.r != 1:
        raise ValueError("per-state optima are defined for single-queue scenarios")
    _one_state(spec, V, state)
    slack = 0.0 if spec.is_finite else 1e-12

    def fills(u1: float) -> bool:
        _, _, arr, svc = _state_argmin(spec, V, state, np.array([u1]))
        return float(svc[0]) <= float(arr[0]) + slack

    return _last_true(fills, max(1.0, V))


def _last_true(pred, hi: float) -> float:
    """Largest float u >= 0 with pred(u), for pred true on [0, u] and false after it.

    Doubles ``hi`` until pred(hi) fails, then bisects [0, hi] until the ends
    are adjacent floats and returns the lower one.  Returns +inf when pred
    still holds past 1e15.
    """
    while pred(hi):
        hi *= 2.0
        if hi > 1e15:
            return math.inf
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if pred(mid):
            lo = mid
        else:
            hi = mid


# -- subgradient steps -------------------------------------------------------


def osm_step(spec: NetworkSpec, V: float, u, alpha: float = 1.0) -> np.ndarray:
    """One deterministic subgradient ascent step, projected to u >= 0."""
    ev = evaluate_dual(spec, V, u)
    return np.maximum(np.asarray(u, dtype=float) + alpha * ev.subgradient, 0.0)


def rism_step(spec: NetworkSpec, V: float, u, state: int, alpha: float = 1.0) -> np.ndarray:
    """One randomized incremental step on the sampled state's term.

    u_j <- max[u_j - alpha * b_j, 0] + alpha * g_j at the state's
    minimizing action; with alpha = 1 this is exactly the idle-fill queue
    update under the greedy decision.
    """
    u = _one_state(spec, V, state, u)
    _, _, arr, svc = _state_argmin(spec, V, state, u)
    return np.maximum(u - alpha * svc, 0.0) + alpha * arr


# -- multiplier search -------------------------------------------------------


def _finite_lp_maximizer(spec: NetworkSpec, V: float) -> tuple[np.ndarray, int]:
    """Maximize the piecewise-linear dual of a finite-table scenario exactly.

    q(u) = sum_i p_i min_k (V c_ik + u . d_ik) with d = arrivals - services
    is the LP  max p . t  over (u >= 0, t free)  subject to
    t_i - u . d_ik <= V c_ik  for every state i and action k.  Returns the
    u-part of a HiGHS vertex solution and the solver's iteration count.
    """
    from scipy.optimize import linprog

    tab = tables(spec)
    r, n = spec.r, spec.n_states
    of_state = np.repeat(np.arange(n), [len(c) for c in tab.cost])  # each record's state
    A_ub = np.hstack([np.concatenate(tab.sma), of_state[:, None] == np.arange(n)])  # sma = -d
    b_ub = V * np.concatenate(tab.cost)
    c = np.concatenate([np.zeros(r), -spec.probs])
    bounds = [(0.0, None)] * r + [(None, None)] * n
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise ConvergenceError(
            f"dual LP for {spec.name!r} at V={V} failed: {res.message}")
    return np.maximum(res.x[:r], 0.0), int(res.nit)


def _continuous_maximizer(spec: NetworkSpec, V: float) -> tuple[np.ndarray, int]:
    """Bisect a one-queue dual on the sign of its subgradient G.

    q is concave in the scalar u, so G is nonincreasing: the maximizer is
    0 when G(0) <= 0 and otherwise the last float u with G(u) > 0.  Returns
    that u and the number of G evaluations.
    """
    if spec.r != 1:
        raise ValueError(
            f"numeric search on continuous action families needs one queue; "
            f"{spec.name!r} has r = {spec.r}")
    calls = 0

    def ascending(u1: float) -> bool:
        nonlocal calls
        calls += 1
        return evaluate_dual(spec, V, np.array([u1])).subgradient[0] > 0.0

    u = _last_true(ascending, max(1.0, V)) if ascending(0.0) else 0.0
    if math.isinf(u):
        raise ConvergenceError(
            f"dual of {spec.name!r} at V={V} still ascends past u = 1e15: "
            f"no multiplier stabilizes the queue")
    return np.array([u]), calls


def find_optimal_multiplier(scenario, V: float, method: str = "auto",
                            rng: "np.random.Generator | int | None" = None) -> MultiplierResult:
    """Locate the dual maximizer U*_V.

    ``method="numeric"`` searches, and the search's own end certifies it,
    so ``probe_ok`` is True.  Finite action tables make the dual
    piecewise-linear: one LP, solved exactly by HiGHS, whose optimal
    status is a duality certificate (``iterations`` is its count).
    Continuous families need one queue (r = 1, else ``ValueError``): G is
    then nonincreasing, and U*_V is 0 when G(0) <= 0, else the last float
    with G(u) > 0, found by doubling a bracket from max(1, V) and bisecting
    it to adjacent floats (``iterations`` counts the G evaluations).  An
    unbounded dual (for a continuous family, G > 0 past u = 1e15) raises
    :class:`ConvergenceError`.  A maximizer that is not unique is one of many.

    With ``method="auto"`` or ``"closed-form"`` a registered closed form is
    returned (``iterations`` 0), certified by the same search: ``probe_ok``
    is q(closed) >= q* - 1e-9 max(1, |q*|), with q* the searched optimum.
    A continuous family on r > 1 queues has no search, so its closed form
    comes back unchecked, with ``probe_ok`` False.  ``rng`` is accepted and
    ignored: no path draws random numbers, and callers that still pass a
    seed keep working.
    """
    handle = as_handle(scenario)
    spec = handle.spec
    if method not in ("auto", "closed-form", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    _check_V(V)
    closed = method != "numeric" and handle.u_star is not None
    if method == "closed-form" and not closed:
        raise ValueError(f"scenario {spec.name!r} has no registered closed form")
    if closed:
        u = np.asarray(handle.u_star(V), dtype=float)
        q = evaluate_dual(spec, V, u).value
        if not spec.is_finite and spec.r != 1:
            return MultiplierResult(u, q, "closed-form", 0, False)

    if spec.is_finite:
        u_num, iterations = _finite_lp_maximizer(spec, V)
    else:
        u_num, iterations = _continuous_maximizer(spec, V)
    q_star = evaluate_dual(spec, V, u_num).value
    if closed:
        return MultiplierResult(u, q, "closed-form", 0,
                                q >= q_star - 1e-9 * max(1.0, abs(q_star)))
    return MultiplierResult(u_num, q_star, "numeric", iterations, True)


# -- structural checks -------------------------------------------------------


def check_scaling(scenario, V_list: Sequence[float]) -> ScalingReport:
    """Residuals of U*_V = V * U*_1 over the given V values.

    Each residual is the max-norm gap ||U*_V - V U*_1||_inf; the report is
    ok when every residual is within tol * V, tol = 1e-9.
    """
    tol = 1e-9
    handle = as_handle(scenario)
    u1 = find_optimal_multiplier(handle, 1.0).u_star
    residuals = {}
    ok = True
    for V in V_list:
        uv = find_optimal_multiplier(handle, V).u_star
        res = float(np.max(np.abs(uv - V * u1)))
        residuals[V] = res
        ok = ok and res <= tol * V
    return ScalingReport(u1, residuals, tol, ok)


def check_subgradient_inequality(spec: NetworkSpec, V: float, u, u_hat,
                                 tol: float = 1e-9) -> bool:
    """Concavity certificate: (u_hat - u) . G_u >= q(u_hat) - q(u) - tol."""
    u = _levels("multiplier", u, spec.r)
    u_hat = _levels("multiplier", u_hat, spec.r)
    ev = evaluate_dual(spec, V, u)
    q_hat = evaluate_dual(spec, V, u_hat).value
    return float((u_hat - u) @ ev.subgradient) >= q_hat - ev.value - tol


def check_slackness(spec: NetworkSpec, epsilon: float) -> SlacknessResult:
    """Search for per-state action distributions with service slack epsilon.

    Solves the small LP  max s  over per-state distributions theta with
    sum_i p_i E_theta[g - b] <= -s  per queue, and reports whether the
    optimal margin reaches epsilon.  The witness distributions are returned
    so they can be checked independently.
    """
    from scipy.optimize import linprog

    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not spec.is_finite:
        raise ValueError("slackness LP needs finite action tables")
    tab = tables(spec)
    of_state = np.repeat(np.arange(spec.n_states), [len(c) for c in tab.cost])
    n_theta = len(of_state)
    # Inequalities: sum_i p_i theta_i . (g - b)_j + s <= 0 for each queue j.
    gmb = -np.concatenate(tab.sma)
    A_ub = np.hstack([(spec.probs[of_state, None] * gmb).T, np.ones((spec.r, 1))])
    b_ub = np.zeros(spec.r)
    # Equalities: each state's theta sums to one.
    A_eq = np.hstack([np.arange(spec.n_states)[:, None] == of_state,
                      np.zeros((spec.n_states, 1))])
    b_eq = np.ones(spec.n_states)
    c = np.zeros(n_theta + 1)
    c[-1] = -1.0
    bounds = [(0.0, 1.0)] * n_theta + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if not res.success:
        raise RuntimeError(f"slackness LP failed: {res.message}")
    margin = float(res.x[-1])
    witness = [res.x[:-1][of_state == i] for i in range(spec.n_states)]
    return SlacknessResult(margin >= epsilon - 1e-9, epsilon, margin, witness)


# -- geometry and constants --------------------------------------------------


def estimate_geometry(scenario) -> GeometryEstimate:
    """Estimate the modulus L of the V=1 dual at its maximizer U*_0.

    Probes q at radii 0.5 and 1 along 64 directions drawn from
    ``default_rng(0)`` and kept inside the nonnegative orthant.  Finite
    action tables make q piecewise linear (polyhedral): L is the smaller
    of the two minimum linear decay ratios.  Continuous families make it
    smooth: L fits the decay as L ||U - U*_0||^2.  For a concave q each
    linear ratio is at least the directional slope, and a minimum over
    sampled directions is at least the minimum over all of them, so L is
    an upper estimate of the true modulus.
    """
    handle = as_handle(scenario)
    spec = handle.spec
    rng = np.random.default_rng(0)
    u_star0 = find_optimal_multiplier(handle, 1.0).u_star
    q_star = evaluate_dual(spec, 1.0, u_star0).value
    radii = (0.5, 1.0)

    dirs = []
    attempts = 0
    while len(dirs) < 64:
        attempts += 1
        if attempts > 200 * 64:
            raise ValueError("could not find probe directions keeping U*_0 + d >= 0")
        d = rng.standard_normal(spec.r)
        nrm = float(np.linalg.norm(d))
        if nrm == 0.0:
            continue
        d /= nrm
        if ((u_star0 + radii[1] * d) >= 0.0).all():
            dirs.append(d)

    decays = np.array([[q_star - evaluate_dual(spec, 1.0, u_star0 + rad * d).value for d in dirs]
                       for rad in radii])
    low = decays.min(axis=1)
    ratios = (float(low[0] / radii[0]), float(low[1] / radii[1]))
    if ratios[0] <= 0 or ratios[1] <= 0:
        raise ValueError("dual appears flat along some probe direction; maximizer "
                         "may be non-unique or off its optimum")
    if spec.is_finite:
        kind, L = "polyhedral", min(ratios)
    else:
        kind, L = "smooth", float(min(low[0] / radii[0] ** 2, low[1] / radii[1] ** 2))
    return GeometryEstimate(kind, L, ratios, radii, len(dirs))


def theorem2_constants(B: float, L: float, V: "float | None" = None) -> TheoremConstants:
    """Attraction constants from the change bound B and modulus L (B >= L > 0)."""
    if not (L > 0):
        raise ValueError(f"L must be positive, got {L!r}")
    if not (B >= L):
        raise ValueError(f"need B >= L, got B={B!r}, L={L!r}")
    d1 = 2.0 * B * B / L + L / 4.0
    k1 = (B * B + B * L / 6.0) / (L / 2.0)
    c1_star = 8.0 * (B * B + B * L / 6.0) * math.exp(L / (B + L / 6.0)) / (L * L)
    d_smooth = None
    if V is not None:
        _check_V(V)
        d_smooth = (math.sqrt(V) + math.sqrt(V + 4.0 * B * B * L * V)) / (2.0 * L)
    return TheoremConstants(B, L, d1, k1, c1_star, 1.0 / k1, d_smooth)
