import gc
import math
import tracemalloc

import numpy as np
import pytest

from lyapnet import sched, sim
from lyapnet import scenarios
from lyapnet.model import ActionRecord, NetworkSpec, StateSpec, queue_update, substream, tables
from lyapnet.sched import (
    ALGORITHMS,
    bisection_placeholder,
    fqla_general_estimate,
    fqla_placeholder_ideal,
    qla_decide,
)


def test_algorithm_selector_strings():
    assert ALGORITHMS == ("qla", "fqla-ideal", "fqla-general", "fqla-bisect")


# -- greedy decision ---------------------------------------------------------


def test_qla_decide_matches_enumeration(five):
    spec = five.spec
    V = 100.0
    rng = np.random.default_rng(31)
    for _ in range(300):
        u = rng.uniform(0.0, 8.0 * V, spec.r)
        state = int(rng.integers(spec.n_states))
        best_k, best = None, None
        for k, act in enumerate(spec.states[state].actions):
            score = float(u @ (act.services - act.arrivals)) - V * act.cost
            if best is None or score > best + 1e-12:
                best_k, best = k, score
        dec = qla_decide(spec, V, state, u)
        assert dec.action == best_k
        act = spec.states[state].actions[best_k]
        assert dec.cost == act.cost
        np.testing.assert_array_equal(dec.arrivals, act.arrivals)
        np.testing.assert_array_equal(dec.services, act.services)


def test_qla_decide_breaks_ties_low():
    spec = NetworkSpec("tie", 1, 1.0, [
        StateSpec(1.0, [ActionRecord(1.0, [0.0], [1.0]),
                        ActionRecord(1.0, [0.0], [1.0]),
                        ActionRecord(0.0, [0.0], [0.0])]),
    ])
    # actions 0 and 1 score u - V, action 2 scores 0; at u = V all tie
    assert qla_decide(spec, 5.0, 0, [5.0]).action == 0


def test_qla_decide_scale_invariance(five):
    spec = five.spec
    rng = np.random.default_rng(32)
    for _ in range(300):
        V = float(rng.uniform(1.0, 200.0))
        u = rng.uniform(0.0, 8.0 * V, spec.r)
        state = int(rng.integers(spec.n_states))
        base = qla_decide(spec, V, state, u).action
        for c in (1e-3, 3.0, 1e4):
            assert qla_decide(spec, c * V, state, c * u).action == base


# -- placeholder levels ------------------------------------------------------


def test_placeholder_ideal_polyhedral():
    u_star = np.array([500.0, 10.0])
    V = 100.0
    got = fqla_placeholder_ideal(u_star, V)
    lnv2 = math.log(V) ** 2
    np.testing.assert_array_equal(got, [500.0 - lnv2, 0.0])


def test_placeholder_ideal_smooth():
    V = 100.0
    gap = math.log(V) ** 2 * math.sqrt(V)
    got = fqla_placeholder_ideal([1000.0, 50.0], V, regime="smooth")
    np.testing.assert_array_equal(got, [1000.0 - gap, 0.0])


def test_placeholder_ideal_validation():
    with pytest.raises(ValueError, match="V: must be positive"):
        fqla_placeholder_ideal([10.0], 0.0)
    with pytest.raises(ValueError, match="regime"):
        fqla_placeholder_ideal([10.0], 10.0, regime="curved")


@pytest.mark.parametrize("V", [-1.0, math.inf, math.nan])
def test_placeholder_ideal_rejects_bad_v(V):
    with pytest.raises(ValueError, match="V: must be positive and finite"):
        fqla_placeholder_ideal([10.0], V)


# -- admit/drop step ---------------------------------------------------------


def test_fqla_slot_rule_by_hand():
    """Two slots of fqla-ideal from W(0) = placeholders = (5, 5) on one action."""
    spec = NetworkSpec("hand", 2, 3.0, [StateSpec(1.0, [ActionRecord(1.0, [3.0, 1.0], [2.0, 2.0])])])
    rep = sim.run(sim.RunConfig(spec, 1.0, algorithm="fqla-ideal", slots=2, burn_in=0,
                                record_trace=True, placeholders=np.array([5.0, 5.0])))
    # slot 0: W sits at its placeholders, so all of (3, 1) is admitted;
    # slot 1: queue 2's W = 4 sits 1 below its placeholder, so 1 of its 1 arrival drops
    np.testing.assert_array_equal(rep.trace.u, [[0.0, 0.0], [3.0, 1.0]])
    np.testing.assert_array_equal(rep.trace.w, [[5.0, 5.0], [6.0, 4.0]])
    np.testing.assert_array_equal(rep.trace.dropped, [0.0, 1.0])
    np.testing.assert_array_equal(rep.drops, [0.0, 1.0])
    np.testing.assert_array_equal(rep.final_backlog, [4.0, 0.0])
    np.testing.assert_array_equal(rep.final_virtual, [7.0, 3.0])


@pytest.mark.parametrize("name", ["five", "contq"])
def test_zero_placeholders_reduce_to_plain_run(name, request):
    """With the floor at zero nothing is ever dropped and U mirrors W."""
    handle = request.getfixturevalue(name)
    base = sim.run(sim.RunConfig(scenario=handle, V=50.0, algorithm="qla",
                                 slots=20_000, seed=4, record_trace=True))
    fq = sim.run(sim.RunConfig(scenario=handle, V=50.0, algorithm="fqla-ideal",
                               slots=20_000, seed=4, record_trace=True,
                               placeholders=np.zeros(handle.spec.r)))
    np.testing.assert_array_equal(fq.trace.u, base.trace.u)
    np.testing.assert_array_equal(fq.trace.w, base.trace.u)
    np.testing.assert_array_equal(fq.trace.costs, base.trace.costs)
    np.testing.assert_array_equal(fq.trace.actions, base.trace.actions)
    assert fq.trace.dropped.sum() == 0.0
    assert fq.drop_fraction == 0.0


def test_virtual_backlog_follows_queue_law(five):
    """W advances by the plain update on the full arrivals every slot."""
    rep = sim.run(sim.RunConfig(scenario=five, V=50.0, algorithm="fqla-ideal",
                                slots=5_000, seed=0, record_trace=True))
    tab = tables(five.spec)
    tr = rep.trace
    w_rows = np.vstack([tr.w, rep.final_virtual])
    for t in range(5_000):
        i, k = int(tr.states[t]), int(tr.actions[t])
        nxt = queue_update(w_rows[t], tab.svc_rows[i][k], tab.arr_rows[i][k])
        np.testing.assert_array_equal(w_rows[t + 1], nxt)


# -- phase-I estimation ------------------------------------------------------


def test_general_estimate_defaults_and_determinism(five):
    est1 = fqla_general_estimate(five, 50.0, rng=3)
    est2 = fqla_general_estimate(five, 50.0, rng=3)
    assert est1.T == 2500 and est1.K == 20
    np.testing.assert_array_equal(est1.placeholders, est2.placeholders)
    np.testing.assert_array_equal(est1.w_terminal_mean, est2.w_terminal_mean)


def test_general_estimate_near_ideal(five):
    V = 50.0
    est = fqla_general_estimate(five, V, rng=0)
    ideal = fqla_placeholder_ideal(five.u_star(V), V)
    assert np.abs(est.placeholders - ideal).max() <= 1.5 * math.log(V) ** 2


def test_general_estimate_zero_arrivals(zero_traffic_spec):
    est = fqla_general_estimate(zero_traffic_spec, 50.0, T=500, K=3, rng=0)
    np.testing.assert_array_equal(est.placeholders, [0.0])
    np.testing.assert_array_equal(est.w_terminal_mean, [0.0])


@pytest.mark.parametrize("V", [0.0, -1.0, math.inf, math.nan])
def test_general_estimate_rejects_bad_v(five, V):
    with pytest.raises(ValueError, match="V: must be positive and finite"):
        fqla_general_estimate(five, V, T=10, K=2)


# each id reads "field message", without the colon the error puts after the field
@pytest.mark.parametrize("kw,msg", [
    (dict(T=True), "T: must be an integer >= 1, got True"),
    (dict(T=50.5), "T: must be an integer >= 1, got 50.5"),
    (dict(T=0), "T: must be an integer >= 1, got 0"),
    (dict(K=True), "K: must be an integer >= 1, got True"),
    (dict(K=2.5), "K: must be an integer >= 1, got 2.5"),
    (dict(K=0), "K: must be an integer >= 1, got 0"),
    (dict(V=0.01, T=None), "T: must be an integer >= 1, got 0"),  # T = int(50 V) = 0
], ids=lambda v: v.replace(": ", " ", 1) if isinstance(v, str) else None)
def test_general_estimate_rejects_bad_counts(five, kw, msg):
    args = dict(V=10.0, T=10, K=2)
    args.update(kw)
    with pytest.raises(ValueError, match=msg):
        fqla_general_estimate(five, **args)


def test_general_estimate_averaging_damps_variance(five):
    """Terminal averages over K=2 runs scatter less than single runs."""
    spread = {}
    for K in (1, 2):
        vals = [fqla_general_estimate(five, 50.0, K=K, rng=seed).w_terminal_mean.sum()
                for seed in range(16)]
        spread[K] = float(np.var(vals, ddof=1))
    assert spread[2] <= spread[1]


def single_run_mean(spec, V, T, K, rng):
    """Mean terminal backlog of K one-at-a-time warmups on the estimator's streams."""
    if not isinstance(rng, np.random.Generator):
        rng = substream(rng, 0, 1)
    return np.array([sim._loop(spec, [V], [g], T, np.zeros((1, spec.r)), 0)[0].final_w
                     for g in rng.spawn(K)]).mean(axis=0)


def _ragged_spec():
    """Three queues, states with 1-3 actions and non-integer entries."""
    g = np.random.default_rng(11)
    states = []
    for n_actions, prob in ((3, 0.2), (1, 0.35), (2, 0.45)):
        states.append(StateSpec(prob, [
            ActionRecord(g.uniform(0.0, 4.0), g.uniform(0.0, 1.7, 3), g.uniform(0.0, 1.7, 3))
            for _ in range(n_actions)]))
    return NetworkSpec("ragged", 3, 1.7, states)


CHUNK = sim._CHUNK


@pytest.mark.parametrize("name", ["five-queue-chain", "two-queue", "single-queue-discrete",
                                  "ragged", "single-queue-continuous"])
@pytest.mark.parametrize("T,K", [(1, 1), (CHUNK // 2, 3), (2 * CHUNK, 2), (2 * CHUNK + 37, 4)])
@pytest.mark.parametrize("as_generator", [False, True])
def test_lockstep_warmups_equal_single_runs(name, T, K, as_generator):
    spec = _ragged_spec() if name == "ragged" else scenarios.by_name(name).spec
    V = 40.0
    est = fqla_general_estimate(spec, V, T=T, K=K,
                                rng=substream(7) if as_generator else 7)
    want = single_run_mean(spec, V, T, K, substream(7) if as_generator else 7)
    assert np.array_equal(est.w_terminal_mean, want)


@pytest.mark.parametrize("name", ["single-queue-continuous", "five-queue-chain"])
def test_warmups_memory_does_not_grow_with_T(name):
    """The warmups keep no paths, on continuous families and, through the
    burn-in prologue, on finite tables: K = 2 runs of T = 16 _CHUNK slots
    peak within a few KB of T = 4 _CHUNK (numpy's small-block caches), below
    the 8 r bytes per extra slot that the W path of even one run would add."""
    handle = scenarios.by_name(name)
    fqla_general_estimate(handle, 50.0, T=4 * CHUNK, K=2, rng=0)
    peaks = []
    for T in (4 * CHUNK, 16 * CHUNK):
        gc.collect()  # otherwise the peak moves with the cyclic collector's timing
        tracemalloc.start()
        try:
            fqla_general_estimate(handle, 50.0, T=T, K=2, rng=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 8 * handle.spec.r * 12 * CHUNK


# -- bisection ---------------------------------------------------------------


def test_bisection_head_queue_level(five):
    V = 100.0
    res = bisection_placeholder(five, V, rng=0)
    assert abs(res.levels[0] - 500.0) <= math.log(V) ** 2 + five.spec.B
    assert not res.warning


def test_bisection_single_queue_level(discq):
    V = 100.0
    res = bisection_placeholder(discq, V, T1=200, rng=0)
    gap = abs(res.levels[0] - float(discq.u_star(V)[0]))
    assert gap <= math.log(V) ** 2 + discq.spec.B
    assert res.converged.all() and not res.warning


def test_bisection_guess_on_the_attractor_fluctuates(discq):
    V = 100.0
    ustar = float(discq.u_star(V)[0])
    hits = sum(
        1 for seed in range(20)
        if (res := bisection_placeholder(discq, V, guess=ustar, rng=seed)).converged[0]
        and res.levels[0] == ustar)
    assert hits >= 16


def test_bisection_zero_arrivals(zero_traffic_spec):
    res = bisection_placeholder(zero_traffic_spec, 50.0, rng=0)
    np.testing.assert_array_equal(res.placeholders, [0.0])
    assert not res.warning


def test_bisection_depth_budget_warning(discq, monkeypatch):
    monkeypatch.setattr(sched, "_BISECT_DEPTH", 1)
    res = bisection_placeholder(discq, 100.0, T1=200, guess=5000.0, rng=0)
    assert res.warning
    assert not res.converged.all()


# each id reads "field message", without the colon the error puts after the field
@pytest.mark.parametrize("kw,msg", [
    (dict(V=0.0), "V: must be positive and finite"),
    (dict(V=-2.0), "V: must be positive and finite"),
    (dict(V=math.inf), "V: must be positive and finite"),
    (dict(V=math.nan), "V: must be positive and finite"),
    (dict(T1=1), "T1: must be an integer >= 2"),
    (dict(T1=0), "T1: must be an integer >= 2"),
    (dict(guess=math.nan), "guess must be finite and nonnegative"),
    (dict(guess=math.inf), "guess must be finite and nonnegative"),
    (dict(T1=2.5), r"T1: must be an integer >= 2, got 2.5"),
    (dict(T1=True), "T1: must be an integer >= 2"),
    (dict(T1=np.float64(50.0)), "T1: must be an integer >= 2"),
], ids=lambda v: v.replace(": ", " ", 1) if isinstance(v, str) else None)
def test_bisection_rejects_bad_inputs(discq, kw, msg):
    args = dict(V=100.0, T1=50, rng=0)
    args.update(kw)
    with pytest.raises(ValueError, match=msg):
        bisection_placeholder(discq, **args)


def test_bisection_validation_and_determinism(discq):
    with pytest.raises(ValueError, match="guess"):
        bisection_placeholder(discq, 100.0, guess=-1.0)
    a = bisection_placeholder(discq, 100.0, rng=5)
    b = bisection_placeholder(discq, 100.0, rng=5)
    np.testing.assert_array_equal(a.placeholders, b.placeholders)
    np.testing.assert_array_equal(a.levels, b.levels)
