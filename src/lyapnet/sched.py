"""Per-slot scheduling algorithms.

The greedy rule picks, in the sampled state, the action maximizing
-V f + u . (b - g) at the current backlog u; that action is exactly the
per-state dual minimizer at multiplier u, so the backlog process is a
randomized incremental subgradient iterate and hovers near the dual
maximizer U*_V.

The delay-reduced variants exploit that attraction: a placeholder level
W_cal_j just below U*_Vj is treated as permanently-present fake backlog.
The virtual backlog W runs the plain queue law and drives decisions, the
actual backlog is U = W minus the placeholder (up to one slot of traffic),
and arrivals are throttled only when W dips below the placeholder.
"""

from __future__ import annotations

import math

import numpy as np

from .dual import _check_V, _integer, _one_state, _state_argmin
from .model import NetworkSpec, _Record, substream
from .scenarios import as_handle

__all__ = [
    "Decision",
    "GeneralEstimate",
    "BisectionResult",
    "qla_decide",
    "fqla_placeholder_ideal",
    "fqla_general_estimate",
    "bisection_placeholder",
    "ALGORITHMS",
]

ALGORITHMS = ("qla", "fqla-ideal", "fqla-general", "fqla-bisect")


class Decision(_Record):
    """Chosen action with its cost, arrival and service vectors."""

    action: "int | float"
    cost: float
    arrivals: np.ndarray
    services: np.ndarray


def qla_decide(spec: NetworkSpec, V: float, state: int, u) -> Decision:
    """Greedy decision in ``state`` at backlog u: argmax of u.(b-g) - V f.

    The action is the first maximum of the scores as the gemv rounds
    them, so an exact tie may go to a higher action index when rounding
    separates the tied scores (see dual._finite_argmin).  Scale invariance holds: (V, u) and
    (cV, cu) admit the same maximizer set for any c > 0.
    """
    u = _one_state(spec, V, state, u)
    k, cost, arr, svc = _state_argmin(spec, V, state, u)
    return Decision(k, cost, arr, svc)


def fqla_placeholder_ideal(u_star, V: float, regime: str = "polyhedral") -> np.ndarray:
    """Placeholder levels from a known optimal multiplier.

    Polyhedral duals concentrate the backlog within O(log V) of U*_V, so
    the placeholder sits log^2 V below it: W_cal = max[U*_V - log^2 V, 0].
    Smooth duals spread over O(sqrt(V)) and use
    W_cal = max[U*_V - log^2 V * sqrt(V), 0].  Logs are natural.  run()
    passes "polyhedral" for finite action tables and "smooth" for
    continuous families; the two estimators back off by the polyhedral gap.
    """
    u_star = np.asarray(u_star, dtype=float)
    _check_V(V)
    gap = math.log(V) ** 2
    if regime == "smooth":
        gap *= math.sqrt(V)
    elif regime != "polyhedral":
        raise ValueError(f"unknown regime {regime!r}")
    return np.maximum(u_star - gap, 0.0)


class GeneralEstimate(_Record):
    """Placeholder estimate from virtual warmup runs."""

    placeholders: np.ndarray
    w_terminal_mean: np.ndarray
    T: int
    K: int


def fqla_general_estimate(scenario, V: float, T: "int | None" = None, K: int = 20,
                          rng: "np.random.Generator | int" = 0) -> GeneralEstimate:
    """Estimate placeholders without knowing U*_V.

    Runs K independent virtual-backlog trajectories under the greedy rule
    from W(0) = 0 for T slots, averages the terminal backlogs, and backs
    off by log^2 V.  T defaults to 50 V and must dominate the trajectory's
    settling time for the terminal average to sit near U*_V; K repetitions
    damp the O(log V) per-run fluctuation.  ``rng`` is a generator or a
    seed: repetition k draws its states from ``rng.spawn(K)[k]``, and a
    seed s stands for the generator ``substream(s, 0, 1)``, the one
    ``run(seed=s, stream=0, algorithm="fqla-general")`` hands over, so the
    warmups never share the states of a run's stream.

    The K warmups are one batched greedy run of the simulation kernel with
    the whole of T as burn-in, an empty statistics window: they advance
    together, one slot of all K per step, and keep no paths, so memory does
    not grow with T; each terminal backlog is bit-identical to the one a
    single run on the same stream reaches.
    """
    from . import sim

    handle = as_handle(scenario)
    _check_V(V)
    T = _integer("T", int(50 * V) if T is None else T, 1)
    K = _integer("K", K, 1)
    if not isinstance(rng, np.random.Generator):
        rng = substream(int(rng), 0, 1)
    streams = rng.spawn(K)
    runs = sim._loop(handle.spec, [V] * K, streams, T, np.zeros((K, handle.spec.r)), T)
    finals = np.array([lp.final_w for lp in runs])
    w_mean = finals.mean(axis=0)
    return GeneralEstimate(fqla_placeholder_ideal(w_mean, V), w_mean, T, K)


class BisectionResult(_Record):
    """Placeholder estimate from trajectory-trend bisection.

    ``levels`` are the located hover levels (pre-backoff); ``converged``
    flags queues whose trajectory fluctuated within the slope threshold;
    ``warning`` is set when the depth budget ran out first.
    """

    placeholders: np.ndarray
    levels: np.ndarray
    converged: np.ndarray
    warning: bool


_BISECT_DEPTH = 40  # bisection rounds before bisection_placeholder gives up


def bisection_placeholder(scenario, V: float, T1: "int | None" = None,
                          guess: "float | None" = None,
                          rng: "np.random.Generator | int" = 0) -> BisectionResult:
    """Estimate placeholders by bisecting on trajectory trend.

    The first level tried is ``guess`` (default: half the natural backlog
    scale r delta_max V); each round runs the greedy rule for T1 slots
    starting at the level vector and classifies every queue by the OLS
    slope of its trajectory: fluctuating iff |slope| < B / sqrt(T1), else
    increasing (level below the hover point) or decreasing (above).
    Brackets are bisected per queue, widening upward when the hover point
    sits above the initial bracket, until every queue fluctuates or 40
    rounds (``_BISECT_DEPTH``) have run (warning).  Returns max[level - log^2 V, 0]
    as placeholders.  This is a labeled heuristic: a noisy window can
    misclassify a trend, T1 defaults to the small sqrt(V) window, and for
    multi-queue scenarios the joint trajectory couples the queues, so
    per-queue classifications degrade; single-queue levels are reliable
    for windows long enough that drift clears the threshold.  ``rng`` is a
    generator, from which each round spawns its own, or a seed s, which
    stands for the generator ``substream(s, 0, 2)`` that
    ``run(seed=s, stream=0, algorithm="fqla-bisect")`` hands over.
    """
    from . import sim

    handle = as_handle(scenario)
    spec = handle.spec
    r = spec.r
    _check_V(V)
    T1 = max(int(math.ceil(math.sqrt(V))), 2) if T1 is None else _integer("T1", T1, 2)
    if guess is None:
        guess = 0.5 * spec.r * spec.delta_max * max(V, 1.0)
    if not (guess >= 0 and math.isfinite(guess)):
        raise ValueError(f"guess must be finite and nonnegative, got {guess!r}")
    thresh = spec.B / math.sqrt(T1)
    lo_b = np.zeros(r)
    hi_b = np.full(r, 2.0 * float(guess))
    level = 0.5 * (lo_b + hi_b)
    converged = np.zeros(r, dtype=bool)
    slots_axis = np.arange(T1, dtype=float)
    slots_axis -= slots_axis.mean()
    denom = float(slots_axis @ slots_axis)
    if not isinstance(rng, np.random.Generator):
        rng = substream(int(rng), 0, 2)
    for _ in range(_BISECT_DEPTH):
        traj = sim._loop(spec, [V], rng.spawn(1), T1, level[None], 0, paths=True)[0].trace.u
        slopes = slots_axis @ (traj - traj.mean(axis=0)) / denom
        for j in range(r):
            if converged[j]:
                continue
            if abs(slopes[j]) < thresh:
                converged[j] = True
            elif slopes[j] > 0:
                lo_b[j] = level[j]
                if hi_b[j] - lo_b[j] < 1.0:  # attractor above the bracket: widen
                    hi_b[j] = 2.0 * hi_b[j] + 1.0
            else:
                hi_b[j] = level[j]
            level[j] = 0.5 * (lo_b[j] + hi_b[j])
        if converged.all():
            break
    return BisectionResult(fqla_placeholder_ideal(level, V), level, converged,
                           not bool(converged.all()))
