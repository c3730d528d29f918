"""Property-based checks on generated finite-table scenarios."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lyapnet import scenarios, sim  # noqa: E402
from lyapnet.model import (  # noqa: E402
    ActionRecord,
    NetworkSpec,
    StateSpec,
    sample_states,
    substream,
    tables,
)
from lyapnet.sched import fqla_general_estimate  # noqa: E402


@st.composite
def finite_specs(draw):
    """Finite scenarios with r <= 3, 1-4 states of 1-4 actions, entries in [0, delta_max]."""
    r = draw(st.integers(1, 3))
    delta_max = draw(st.floats(0.25, 4.0))
    unit = st.floats(0.0, 1.0)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    probs = np.array(weights) / sum(weights)
    states = []
    for p in probs:
        n_actions = draw(st.integers(1, 4))
        actions = [ActionRecord(draw(st.floats(0.0, 10.0)),
                                [delta_max * draw(unit) for _ in range(r)],
                                [delta_max * draw(unit) for _ in range(r)])
                   for _ in range(n_actions)]
        states.append(StateSpec(float(p), actions))
    return NetworkSpec("generated", r, delta_max, states)


@settings(max_examples=40, deadline=None)
@given(spec=finite_specs(), V=st.floats(0.5, 200.0), T=st.integers(1, 2 * sim._CHUNK + 50),
       K=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_batched_warmups_equal_single_runs(spec, V, T, K, seed):
    est = fqla_general_estimate(spec, V, T=T, K=K, rng=seed)
    finals = [sim._virtual_trajectory(spec, V, T, substream(seed, k))[-1] for k in range(K)]
    assert np.array_equal(est.w_terminal_mean, np.array(finals).mean(axis=0))


def _run(spec, V, slots, seed, **kw):
    return sim.run(sim.RunConfig(scenario=spec, V=V, slots=slots, seed=seed, record_trace=True,
                                 **kw))


@settings(max_examples=40, deadline=None)
@given(spec=finite_specs(), V=st.floats(0.5, 200.0), slots=st.integers(1, 400),
       seed=st.integers(0, 2**32 - 1))
def test_zero_placeholders_equal_plain_run(spec, V, slots, seed):
    base = _run(spec, V, slots, seed)
    fq = _run(spec, V, slots, seed, algorithm="fqla-ideal", placeholders=np.zeros(spec.r))
    for got in (fq.trace.u, fq.trace.w):
        assert np.array_equal(got, base.trace.u)
    assert np.array_equal(fq.final_backlog, base.final_backlog)
    assert np.array_equal(fq.final_virtual, base.final_backlog)
    assert np.array_equal(fq.trace.costs, base.trace.costs)
    assert np.array_equal(fq.trace.actions, base.trace.actions)
    assert fq.trace.dropped.sum() == 0.0


@settings(max_examples=40, deadline=None)
@given(spec=finite_specs(), V=st.floats(0.5, 200.0), slots=st.integers(1, 400),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_random_placeholders_keep_sandwich_and_change_bound(spec, V, slots, seed, data):
    wl = np.array(data.draw(st.lists(st.floats(0.0, 50.0), min_size=spec.r, max_size=spec.r)))
    rep = _run(spec, V, slots, seed, algorithm="fqla-ideal", placeholders=wl,
               check_invariants=True)
    assert rep.sandwich_violations == 0


def reference_loop(spec, V, idx, w0, burn, wl=None):
    """Test-only oracle for ``sim._loop``: the greedy run one slot at a time.

    Every slot decides, then updates W, U, the cost and the drop and
    arrival sums with r-vector operations, in the order fqla_step uses.
    """
    r = spec.r
    if spec.is_finite:
        tab = tables(spec)
        vcost = [V * c for c in tab.cost]

        def decide(i, u):
            score = tab.sma[i] @ u
            score -= vcost[i]
            k = int(score.argmax())
            return k, tab.cost[i][k], tab.arr[i][k], tab.svc[i][k]

        act_dtype = np.int64
    else:
        fams = [st.actions for st in spec.states]

        def decide(i, u):
            fam = fams[i]
            x = float(fam.dual_argmin(V, u))
            return x, fam.cost(x), fam.arrivals(x), fam.services(x)

        act_dtype = float
    slots = len(idx)
    W = np.empty((slots + 1, r))
    W[0] = w0
    costs = np.empty(slots)
    acts = np.empty(slots, dtype=act_dtype)
    arr_sum = np.zeros(r)
    drop_sum = np.zeros(r)
    w = np.array(w0, dtype=float)
    if wl is None:
        U, drops_t = W, None
    else:
        U = np.empty((slots + 1, r))
        U[0] = 0.0
        drops_t = np.empty(slots)
        u = np.zeros(r)
    for t, i in enumerate(idx.tolist()):
        k, c, a, mu = decide(i, w)
        acts[t] = k
        costs[t] = c
        if wl is not None:
            admit = np.maximum(a - np.maximum(wl - w, 0.0), 0.0)
            dropped = a - admit
            u = u - mu
            np.maximum(u, 0.0, out=u)
            u += admit
            if t >= burn:
                drop_sum += dropped
            drops_t[t] = dropped.sum()
            U[t + 1] = u
        w = w - mu
        np.maximum(w, 0.0, out=w)
        w += a
        if t >= burn:
            arr_sum += a
        W[t + 1] = w
    return U, W, costs, acts, drops_t, arr_sum, drop_sum


CHUNK = sim._CHUNK
ORACLE_SLOTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


def burn_ins(slots):
    """Burn-in lengths anywhere in [0, slots) or on a block edge."""
    edges = [k * CHUNK for k in range(slots // CHUNK + 1) if k * CHUNK < slots]
    return st.one_of(st.integers(0, slots - 1), st.sampled_from(edges))


def assert_raw_bits_equal(spec, V, seed, slots, burn, w0, wl):
    idx = sample_states(spec, substream(seed), slots)
    got = sim._loop(spec, V, idx, w0, burn, wl)
    want = reference_loop(spec, V, idx, w0, burn, wl)
    names = ("U", "W", "costs", "actions", "drops per slot", "arr_sum", "drop_sum")
    for name, g, e in zip(names, got, want):
        if e is None:
            assert g is None, name
            continue
        assert g.dtype == e.dtype, name
        assert np.array_equal(g, e), name


@settings(max_examples=60, deadline=None)
@given(spec=finite_specs(), V=st.floats(0.5, 200.0), slots=st.sampled_from(ORACLE_SLOTS),
       seed=st.integers(0, 2**32 - 1), with_placeholders=st.booleans(), data=st.data())
def test_loop_matches_reference_bit_for_bit(spec, V, slots, seed, with_placeholders, data):
    burn = data.draw(burn_ins(slots))
    levels = st.lists(st.floats(0.0, 50.0), min_size=spec.r, max_size=spec.r)
    w0 = np.array(data.draw(levels))
    wl = np.array(data.draw(levels)) if with_placeholders else None
    assert_raw_bits_equal(spec, V, seed, slots, burn, w0, wl)


@settings(max_examples=30, deadline=None)
@given(V=st.floats(0.5, 200.0), slots=st.sampled_from(ORACLE_SLOTS),
       seed=st.integers(0, 2**32 - 1), with_placeholders=st.booleans(), data=st.data())
def test_continuous_loop_matches_reference_bit_for_bit(V, slots, seed, with_placeholders, data):
    spec = scenarios.by_name("single-queue-continuous").spec
    burn = data.draw(burn_ins(slots))
    w0 = np.array([data.draw(st.floats(0.0, 3.0 * V))])
    wl = np.array([data.draw(st.floats(0.0, 3.0 * V))]) if with_placeholders else None
    assert_raw_bits_equal(spec, V, seed, slots, burn, w0, wl)
