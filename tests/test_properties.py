"""Property-based checks on generated scenarios."""

import dataclasses
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lyapnet import scenarios, sim  # noqa: E402
from lyapnet.dual import (  # noqa: E402
    ConvergenceError,
    check_slackness,
    check_subgradient_inequality,
    estimate_geometry,
    evaluate_dual,
    find_optimal_multiplier,
    per_state_optimum,
    rism_step,
)
from lyapnet.model import (  # noqa: E402
    ActionRecord,
    ContinuousActions,
    NetworkSpec,
    StateSpec,
    ValidationError,
    one_step_distance_contract_check,
    queue_update,
    sample_states,
    spec_from_dict,
    spec_to_dict,
    substream,
    tables,
)
from lyapnet.sched import fqla_general_estimate, qla_decide  # noqa: E402


@st.composite
def finite_specs(draw, max_r=3):
    """Finite scenarios with r <= max_r, 1-4 states of 1-4 actions, entries in [0, delta_max]."""
    r = draw(st.integers(1, max_r))
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
    finals = [sim._loop(spec, [V], [g], T, np.zeros((1, spec.r)), 0)[0].final_w
              for g in substream(seed, 0, 1).spawn(K)]
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
            return k, tab.cost[i][k], tab.arr_rows[i][k], tab.svc_rows[i][k]

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
ORACLE_SLOTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7, 9 * CHUNK + 3]


def burn_ins(slots):
    """Burn-in lengths anywhere in [0, slots) or on a block edge."""
    edges = [k * CHUNK for k in range(slots // CHUNK + 1) if k * CHUNK < slots]
    return st.one_of(st.integers(0, slots - 1), st.sampled_from(edges))


def same_bits(got, want):
    """Equal dtypes, shapes and raw bytes (so 0.0 and -0.0 differ)."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_raw_bits_equal(spec, V, seed, slots, burn, w0, wl, ref, paths):
    [got] = sim._loop(spec, [V], [substream(seed)], slots, w0[None], burn,
                      None if wl is None else wl[None], None if ref is None else ref[None],
                      paths=paths)
    idx = sample_states(spec, substream(seed), slots)
    U, W, costs, acts, drops_t, arr_sum, drop_sum = reference_loop(spec, V, idx, w0, burn, wl)
    # the statistics run() used to derive from the full per-slot series;
    # the means are the identities the streamed blocks must reproduce
    want = {"avg_cost": costs[burn:].mean(), "arr_sum": arr_sum, "drop_sum": drop_sum,
            "bad": None if wl is None else int(sim._sandwich_bad(U, W, wl, spec.delta_max).sum()),
            "dev": None,
            "avg_u": U[burn:slots].mean(axis=0), "avg_w": W[burn:slots].mean(axis=0),
            "final_u": U[slots], "final_w": W[slots]}
    if ref is not None:
        want["dev"] = np.linalg.norm(W[burn:slots] - ref, axis=1)
    if not paths:
        assert got.trace is None
    else:  # the trace keeps the slot-start rows only; final_u/final_w check the last
        want.update({"trace.states": idx, "trace.actions": acts, "trace.costs": costs,
                     "trace.u": U[:slots], "trace.w": None if wl is None else W[:slots],
                     "trace.dropped": drops_t})
    for name, e in want.items():
        g = got
        for part in name.split("."):
            g = getattr(g, part)
        if e is None:
            assert g is None, name
        elif isinstance(e, int):
            assert g == e, name
        elif name == "avg_cost":
            assert type(g) is float and same_bits(np.float64(g), e), name
        else:
            assert same_bits(g, e), name


@settings(max_examples=60, deadline=None)
@given(spec=finite_specs(), V=st.floats(0.5, 200.0), slots=st.sampled_from(ORACLE_SLOTS),
       seed=st.integers(0, 2**32 - 1), with_placeholders=st.booleans(), data=st.data())
def test_loop_matches_reference_bit_for_bit(spec, V, slots, seed, with_placeholders, data):
    burn = data.draw(burn_ins(slots))
    levels = st.lists(st.floats(0.0, 50.0), min_size=spec.r, max_size=spec.r)
    w0 = np.array(data.draw(levels))
    wl = np.array(data.draw(levels)) if with_placeholders else None
    ref = data.draw(st.none() | levels.map(np.array))
    assert_raw_bits_equal(spec, V, seed, slots, burn, w0, wl, ref, data.draw(st.booleans()))


def crossing_family(a):
    """x in [0, 1] at cost x^2, arrivals (a, x) and services (x, 0.8).

    V x^2 + u_1 (a - x) + u_2 (x - 0.8) is least at x = clip((u_1 - u_2) / (2V), 0, 1),
    so queue 2's arrivals depend on the decision.
    """
    return ContinuousActions(0.0, 1.0, cost=lambda x: x * x,
                             arrivals=lambda x: np.array([a, x]),
                             services=lambda x: np.array([x, 0.8]),
                             dual_argmin=lambda V, u: min(max((u[0] - u[1]) / (2.0 * V), 0.0), 1.0))


CONTINUOUS_TANDEM = NetworkSpec("continuous-tandem", 2, 1.0, [
    StateSpec(0.5, crossing_family(0.2)), StateSpec(0.5, crossing_family(0.9))])
CONTINUOUS_SPECS = {"single-queue-continuous": scenarios.by_name("single-queue-continuous").spec,
                    "continuous-tandem": CONTINUOUS_TANDEM}


@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(list(CONTINUOUS_SPECS)), V=st.floats(0.5, 200.0),
       slots=st.sampled_from(ORACLE_SLOTS), seed=st.integers(0, 2**32 - 1),
       with_placeholders=st.booleans(), data=st.data())
def test_continuous_loop_matches_reference_bit_for_bit(which, V, slots, seed, with_placeholders,
                                                       data):
    spec = CONTINUOUS_SPECS[which]
    burn = data.draw(burn_ins(slots))
    level = st.lists(st.floats(0.0, 3.0 * V), min_size=spec.r, max_size=spec.r).map(np.array)
    w0 = data.draw(level)
    wl = data.draw(level) if with_placeholders else None
    ref = data.draw(st.none() | level)
    assert_raw_bits_equal(spec, V, seed, slots, burn, w0, wl, ref, data.draw(st.booleans()))


MEAN_SIZES = st.integers(1, 3000) | st.sampled_from([22_500, 100_003])
MEAN_DATA = {"integer": lambda z: np.rint(8.0 * z), "normal": lambda z: z,
             "expm1": lambda z: np.expm1(3.0 * z)}


@settings(max_examples=150, deadline=None)
@given(n=MEAN_SIZES, R=st.integers(1, 4), r=st.sampled_from([None, 1, 2, 3, 5]),
       kind=st.sampled_from(sorted(MEAN_DATA)), offset=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_window_mean_matches_numpy_mean(n, R, r, kind, offset, seed, data):
    """Blocks of R runs fed to _WindowMean give each run's X.mean(axis=0) bit
    for bit, wherever the blocks split; X is the run's own contiguous series."""
    shape = (n + offset, R) if r is None else (n + offset, R, r)
    x = MEAN_DATA[kind](np.random.default_rng(seed).standard_normal(shape))[offset:]
    # before feeding, as add may overwrite its rows
    want = [np.ascontiguousarray(x[:, k]).mean(axis=0) for k in range(R)]
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=12)))
    got = sim._WindowMean(n, R, r)
    for a, b in zip([0] + cuts, cuts + [n]):
        got.add(x[a:b])
    mean = got.mean()
    assert mean.shape == (R,) + (() if r is None else (r,))
    for k in range(R):
        assert same_bits(mean[k], want[k])


TRACE_SLOTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1]


def trace_burn_ins(slots):
    """Burn-in at 0, inside the first block, on a block edge or at the last slot."""
    edges = [k * CHUNK for k in (1, 2) if k * CHUNK < slots]
    return st.sampled_from([0, slots - 1] + edges) | st.integers(0, min(CHUNK, slots) - 1)


def assert_trace_changes_no_report_bits(scenario, V, slots, seed, burn, kw):
    """run() keeping every per-slot series, or checking the invariants per
    block, reports the bits of a plain streamed run."""
    cfg = dict(scenario=scenario, V=V, slots=slots, seed=seed, burn_in=burn, **kw)
    plain = sim.run(sim.RunConfig(**cfg))
    traced = sim.run(sim.RunConfig(record_trace=True, **cfg))
    checked = sim.run(sim.RunConfig(check_invariants=True, **cfg))
    assert plain.trace is None and checked.trace is None and traced.trace is not None
    for other in (traced, checked):
        for f in dataclasses.fields(sim.SimReport):
            if f.name == "trace":
                continue
            g, e = getattr(plain, f.name), getattr(other, f.name)
            if e is None or isinstance(e, (str, int)):
                assert g == e, f.name
            else:
                assert same_bits(g, e), f.name


@settings(max_examples=60, deadline=None)
@given(spec=finite_specs(max_r=4), V=st.floats(0.5, 200.0), slots=st.sampled_from(TRACE_SLOTS),
       seed=st.integers(0, 2**32 - 1), with_placeholders=st.booleans(), data=st.data())
def test_trace_on_and_off_report_the_same_bits(spec, V, slots, seed, with_placeholders, data):
    levels = st.lists(st.floats(0.0, 50.0), min_size=spec.r, max_size=spec.r).map(np.array)
    kw = {"deviation_reference": data.draw(st.none() | levels)}
    if with_placeholders:
        kw.update(algorithm="fqla-ideal", placeholders=data.draw(levels))
    assert_trace_changes_no_report_bits(spec, V, slots, seed, data.draw(trace_burn_ins(slots)), kw)


@settings(max_examples=20, deadline=None)
@given(V=st.floats(0.5, 200.0), slots=st.sampled_from(TRACE_SLOTS),
       seed=st.integers(0, 2**32 - 1), with_placeholders=st.booleans(), data=st.data())
def test_continuous_trace_on_and_off_report_the_same_bits(V, slots, seed, with_placeholders,
                                                          data):
    kw = {}
    if with_placeholders:
        kw.update(algorithm="fqla-ideal",
                  placeholders=np.array([data.draw(st.floats(0.0, 3.0 * V))]))
    assert_trace_changes_no_report_bits(scenarios.by_name("single-queue-continuous"), V, slots,
                                        seed, data.draw(trace_burn_ins(slots)), kw)


SERIES = ("deviations", "trace")


def assert_same_scalars(got, want):
    """Every field of run_many's report but the per-slot series, which it leaves None."""
    for f in dataclasses.fields(sim.SimReport):
        g, e = getattr(got, f.name), getattr(want, f.name)
        if f.name in SERIES:
            assert g is None, f.name
        elif e is None or isinstance(e, (str, int)):
            assert type(g) is type(e) and g == e, f.name
        elif isinstance(e, float):
            assert type(g) is float and g.hex() == e.hex(), f.name
        else:
            assert same_bits(g, e), f.name


BATCH_SCENARIOS = {"two-queue": scenarios.by_name("two-queue"),
                   "single-queue-continuous": scenarios.by_name("single-queue-continuous")}


@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(["two-queue", "ragged", "single-queue-continuous"]),
       R=st.integers(1, 8), data=st.data())
def test_run_many_reports_the_bits_of_run(which, R, data):
    """run_many of R configs, mixing V, seeds, streams and both algorithm
    kinds (one kernel call per kind), over slots that cross several block
    edges and end inside a block: each report has run()'s bits."""
    handle = BATCH_SCENARIOS.get(which) or data.draw(finite_specs(max_r=3))
    spec = scenarios.as_handle(handle).spec
    rows = sim._CHUNK // R
    slots = data.draw(st.integers(2, 4)) * rows + data.draw(st.integers(1, rows - 1))
    burn = data.draw(st.integers(0, slots - 1))
    levels = st.lists(st.floats(0.0, 50.0), min_size=spec.r, max_size=spec.r).map(np.array)
    configs = []
    for _ in range(R):
        kw = dict(scenario=handle, V=data.draw(st.floats(0.5, 200.0)), slots=slots,
                  burn_in=burn, seed=data.draw(st.integers(0, 2**32 - 1)),
                  stream=data.draw(st.integers(0, 3)),
                  algorithm=data.draw(st.sampled_from(["qla", "fqla-ideal"])))
        if which == "ragged":  # no U*_V registered: explicit levels and reference
            kw["deviation_reference"] = data.draw(levels)
            if kw["algorithm"] == "fqla-ideal":
                kw["placeholders"] = data.draw(levels)
            else:
                kw["initial_backlog"] = data.draw(levels)
        configs.append(sim.RunConfig(**kw))
    for got, cfg in zip(sim.run_many(configs), configs):
        assert_same_scalars(got, sim.run(cfg))


@pytest.mark.parametrize("algorithm", ["qla", "fqla-ideal"])
@pytest.mark.parametrize("R", range(2, 9))
def test_continuous_tandem_runs_many_with_the_bits_of_run(R, algorithm, monkeypatch):
    """R runs of the two-queue continuous family through one R-run _loop
    call report the bits of R single runs, whose invariant scans pass."""
    rows = sim._CHUNK // R
    slots, rng = 3 * rows + R, np.random.default_rng(R)
    configs = []
    for k in range(R):
        V = float(rng.uniform(0.5, 50.0))
        levels = {"placeholders" if algorithm == "fqla-ideal" else "initial_backlog":
                  rng.uniform(0.0, 3.0 * V, 2)}
        configs.append(sim.RunConfig(scenario=CONTINUOUS_TANDEM, V=V, slots=slots,
                                     burn_in=slots // 3, seed=k, stream=k % 2,
                                     algorithm=algorithm,
                                     deviation_reference=rng.uniform(0.0, 3.0 * V, 2), **levels))
    loop, widths = sim._loop, []

    def spy(spec, V, rngs, *args, **kw):
        widths.append(len(rngs))
        return loop(spec, V, rngs, *args, **kw)

    monkeypatch.setattr(sim, "_loop", spy)
    many = sim.run_many(configs)
    assert widths == [R]
    for got, cfg in zip(many, configs):
        assert_same_scalars(got, sim.run(dataclasses.replace(cfg, check_invariants=True)))


def reference_queue_path(path, mu, x):
    """Test-only oracle for ``sim._queue_path``: the scalar recursion on every slot."""
    for j, (ms, xs) in enumerate(zip(mu.T.tolist(), x.T.tolist())):
        u, col = path[0, j].item(), []
        for m, a in zip(ms, xs):
            u -= m
            if u < 0.0:
                u = 0.0
            u += a
            col.append(u)
        path[1:, j] = col


def assert_queue_path_exact(start, mu, x):
    got = np.empty((len(mu) + 1, len(start)))
    want = np.empty_like(got)
    got[0] = want[0] = start
    sim._queue_path(got, mu, x)
    reference_queue_path(want, mu, x)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


GRID = st.sampled_from([0.0, 0.25, 1.0, 2.5])
ENTRIES = GRID | st.floats(0.0, 1e6)


@settings(max_examples=100, deadline=None)
@given(r=st.integers(1, 3), n=st.sampled_from([1, 2, CHUNK - 1, CHUNK]), data=st.data())
def test_queue_path_matches_scalar_recursion(r, n, data):
    steps = hnp.arrays(float, (n, r), elements=ENTRIES)
    start = data.draw(hnp.arrays(float, r, elements=st.just(0.0) | ENTRIES))
    assert_queue_path_exact(start, data.draw(steps), data.draw(steps))


@pytest.mark.parametrize("n", [1, 2, CHUNK - 1, CHUNK])
@pytest.mark.parametrize("where", ["first", "last", "every"])
def test_queue_path_clamps_exactly(n, where):
    """The cumsum path hands over to the scalar recursion at a queue's first clamp."""
    rng = np.random.default_rng(n)
    start = np.array([0.0, 3.0, 0.1])
    mu = rng.choice([0.0, 0.25, 1.0], size=(n, 3))
    x = rng.choice([0.25, 1.0, 2.5], size=(n, 3)) + rng.random((n, 3))
    if where == "first":
        mu[0] = start + 0.5
    elif where == "last":
        mu[:-1] = 0.0
        mu[-1] = start + x[:-1].sum(axis=0) + 0.5
    else:
        start = np.array([0.0, 0.9, 0.1])
        x[:] = 0.1 * rng.random((n, 3))
        mu[:] = 1.0
    assert_queue_path_exact(start, mu, x)


NONNEG = st.just(0.0) | st.floats(2.0**-60, 1e4)


def _exactly_scalable(spec):
    """No table entry so small that scaling it by 2^-4 could underflow a product."""
    tab = tables(spec)
    entries = np.abs(np.concatenate([np.ravel(tab.sma[i]) for i in range(spec.n_states)]
                                    + list(tab.cost)))
    return bool(((entries == 0.0) | (entries >= 2.0**-600)).all())


@settings(max_examples=60, deadline=None)
@given(spec=finite_specs(), V=st.floats(0.5, 200.0), k=st.integers(-4, 4), data=st.data())
def test_greedy_decision_is_scale_invariant(spec, V, k, data):
    """(V, u) and (c V, c u) pick the same action; c = 2^k scales every score exactly."""
    hypothesis.assume(_exactly_scalable(spec))
    i = data.draw(st.integers(0, spec.n_states - 1))
    u = np.array(data.draw(st.lists(NONNEG, min_size=spec.r, max_size=spec.r)))
    c = 2.0**k
    assert qla_decide(spec, V, i, u).action == qla_decide(spec, c * V, i, c * u).action


@settings(max_examples=60, deadline=None)
@given(spec=finite_specs(), V=st.floats(0.5, 200.0), data=st.data())
def test_rism_step_at_unit_step_is_the_queue_law(spec, V, data):
    i = data.draw(st.integers(0, spec.n_states - 1))
    u = np.array(data.draw(st.lists(NONNEG, min_size=spec.r, max_size=spec.r)))
    dec = qla_decide(spec, V, i, u)
    got = rism_step(spec, V, u, i, alpha=1.0)
    want = queue_update(u, dec.services, dec.arrivals)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(spec=finite_specs(max_r=4))
def test_spec_dict_round_trip(spec):
    """spec_to_dict / spec_from_dict, through JSON text, rebuild the same tables."""
    d = spec_to_dict(spec)
    back = spec_from_dict(json.loads(json.dumps(d)))
    assert spec_to_dict(back) == d
    assert same_bits(back.probs, spec.probs)
    got, want = tables(back), tables(spec)
    for i in range(spec.n_states):
        for field in ("cost", "arr_rows", "svc_rows"):
            g, e = getattr(got, field), getattr(want, field)
            assert same_bits(g[i], e[i])


BACKLOG = st.floats(0.0, 1e4)


@settings(max_examples=100, deadline=None)
@given(spec=finite_specs(max_r=4), data=st.data())
def test_one_step_distance_contract_on_generated_specs(spec, data):
    """Any table action from any backlog meets the contract against any nonnegative target."""
    i = data.draw(st.integers(0, spec.n_states - 1))
    tab = tables(spec)
    k = data.draw(st.integers(0, len(tab.cost[i]) - 1))
    vec = st.lists(BACKLOG, min_size=spec.r, max_size=spec.r).map(np.array)
    u, target = data.draw(vec), data.draw(vec)
    assert one_step_distance_contract_check(u, tab.svc_rows[i][k], tab.arr_rows[i][k], target,
                                            spec.B)


@settings(max_examples=60, deadline=None)
@given(spec=finite_specs(), V=st.floats(0.5, 200.0), data=st.data())
def test_lp_multiplier_meets_subgradient_inequality(spec, V, data):
    """At any u >= 0 the subgradient points toward the LP's U*: (U* - u).G_u >= q(U*) - q(u)."""
    try:
        u_star = find_optimal_multiplier(spec, V, method="numeric").u_star
    except ConvergenceError:
        hypothesis.assume(False)  # the dual is unbounded: no multiplier stabilizes the queues
    u = np.array(data.draw(st.lists(BACKLOG, min_size=spec.r, max_size=spec.r)))
    assert check_subgradient_inequality(spec, V, u, u_star)


@settings(max_examples=100, deadline=None)
@given(spec=finite_specs(), V=st.floats(0.5, 200.0), data=st.data())
def test_lp_multiplier_is_a_maximum(spec, V, data):
    """No u >= 0 beats the LP's U*: q(U*) >= q(u) - 1e-9 (1 + V max c).

    q(U*) = V f* lies in [0, V max c] by strong duality, and that scale
    bounds the terms whose rounding the tolerance absorbs.  u is drawn
    anywhere in [0, 1e4]^r, or as U* moved by up to 1e-6, 1e-2, 1 or V
    along each queue.
    """
    try:
        res = find_optimal_multiplier(spec, V, method="numeric")
    except ConvergenceError:
        hypothesis.assume(False)  # the dual is unbounded: no multiplier stabilizes the queues
    tol = 1e-9 * (1.0 + V * max(float(a.cost) for s in spec.states for a in s.actions))
    vec = st.lists(st.floats(-1.0, 1.0), min_size=spec.r, max_size=spec.r).map(np.array)
    scale = data.draw(st.sampled_from([None, 1e-6, 1e-2, 1.0, V]))
    if scale is None:
        u = np.array(data.draw(st.lists(BACKLOG, min_size=spec.r, max_size=spec.r)))
    else:
        u = np.maximum(res.u_star + scale * data.draw(vec), 0.0)
    assert res.probe_ok
    assert res.value >= evaluate_dual(spec, V, u).value - tol


def per_state_lp_matrices(spec, V):
    """A_ub and b_ub of the dual LP, then A_ub and A_eq of the slackness LP, built
    state by state with offsets as dual.py built them before it stacked the tables."""
    tab = tables(spec)
    r, n = spec.r, spec.n_states
    blocks = []
    for i in range(n):
        pick_t = np.zeros((len(tab.cost[i]), n))
        pick_t[:, i] = 1.0
        blocks.append(np.hstack([tab.sma[i], pick_t]))
    sizes = [len(c) for c in tab.cost]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    slack_ub = np.zeros((r, sum(sizes) + 1))
    for i, st_ in enumerate(spec.states):
        slack_ub[:, offsets[i]:offsets[i + 1]] = st_.prob * (-tab.sma[i]).T
    slack_ub[:, -1] = 1.0
    slack_eq = np.zeros((n, sum(sizes) + 1))
    for i in range(n):
        slack_eq[i, offsets[i]:offsets[i + 1]] = 1.0
    return np.concatenate(blocks), V * np.concatenate(tab.cost), slack_ub, slack_eq


@settings(max_examples=60, deadline=None)
@given(spec=finite_specs(max_r=4), V=st.floats(0.5, 200.0))
def test_lp_matrices_match_the_per_state_loops(spec, V):
    """Both LPs get the bytes of their per-state builds, -0.0 entries included."""
    import scipy.optimize

    seen = []
    real = scipy.optimize.linprog

    def spy(c, **kw):
        seen.append(kw)
        return real(c, **kw)

    with mock.patch.object(scipy.optimize, "linprog", spy):
        try:
            find_optimal_multiplier(spec, V, method="numeric")
        except ConvergenceError:
            pass  # an unbounded dual: the matrices were built all the same
        check_slackness(spec, 0.01)
    got = [seen[0]["A_ub"], seen[0]["b_ub"], seen[1]["A_ub"], seen[1]["A_eq"]]
    for g, want in zip(got, per_state_lp_matrices(spec, V)):
        assert g.dtype == want.dtype and g.shape == want.shape
        assert g.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(mu_max=st.floats(0.6, 4.0), V=st.floats(0.01, 1e5))
def test_continuous_search_stops_where_the_subgradient_changes_sign(mu_max, V):
    """The bisection returns the last float with G > 0, within 1e-14 of V e^(1/2)."""
    spec = scenarios.single_queue_continuous(mu_max).spec
    res = find_optimal_multiplier(spec, V, method="numeric")
    u = res.u_star[0]

    def G(x):
        return evaluate_dual(spec, V, [x]).subgradient[0]

    assert G(u) > 0.0 >= G(np.nextafter(u, np.inf))
    assert abs(u - V * np.exp(0.5)) <= 1e-14 * V * np.exp(0.5)


def breakpoint_scan_optimum(spec, V, i):
    """The largest per-state maximizer by an O(A^2) scan of the table's breakpoints.

    The scan per_state_optimum ran on finite tables before it bisected on
    the minimizer's drain: every pairwise breakpoint z > 0 (and 0) is a
    candidate, and the largest one whose envelope value is within 1e-9
    of the top wins; +inf when no action drains the queue.
    """
    tab = tables(spec)
    c = V * tab.cost[i]
    d = -tab.sma[i][:, 0]  # arrivals minus services
    if d.min() >= 0.0:
        return math.inf
    zs = {0.0}
    for x, y in itertools.combinations(range(len(d)), 2):
        if d[x] != d[y]:
            z = (c[y] - c[x]) / (d[x] - d[y])
            if z > 0:
                zs.add(float(z))
    z_arr = np.array(sorted(zs))
    env = (c[None, :] + z_arr[:, None] * d[None, :]).min(axis=1)
    top = env.max()
    return float(z_arr[env >= top - 1e-9 * max(1.0, abs(top))].max())


@st.composite
def grid_queue_specs(draw):
    """One-queue finite scenarios with entries on a 1/8 grid (traffic in delta_max / 8 steps).

    With V whole, each state's envelope values at its breakpoints are
    multiples of 1/(8 m), m <= 16, so distinct ones lie at least 1/1920
    apart: the scan's 1e-9 envelope tolerance joins exact ties only, and
    every nonzero drain is at least delta_max / 8.
    """
    delta_max = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    eighths = st.integers(0, 8).map(lambda n: delta_max * n / 8)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    states = [StateSpec(float(p), [ActionRecord(draw(st.integers(0, 80)) / 8, [draw(eighths)],
                                                [draw(eighths)])
                                   for _ in range(draw(st.integers(1, 4)))])
              for p in np.array(weights) / sum(weights)]
    return NetworkSpec("grid", 1, delta_max, states)


@settings(max_examples=100, deadline=None)
@given(spec=grid_queue_specs(), V=st.integers(1, 200), data=st.data())
def test_per_state_optimum_matches_the_breakpoint_scan(spec, V, data):
    """Bisecting on the greedy action's drain lands within 1e-12 of the exact breakpoint.

    The bisection stops where _finite_argmin's rounded scores flip.  At an
    optimum at 0 a tie at u = 0 outlives u until u d rounds away against
    V c (or underflows, when c = 0): the drain d is at least delta_max / 8.
    """
    i = data.draw(st.integers(0, spec.n_states - 1))
    got, want = per_state_optimum(spec, V, i), breakpoint_scan_optimum(spec, V, i)
    if want == 0.0:
        assert got <= 1e-12 * V * float(tables(spec).cost[i].max()) * 8 / spec.delta_max + 1e-300
    elif math.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * want


@settings(max_examples=60, deadline=None)
@given(spec=finite_specs())
def test_finite_tables_have_polyhedral_geometry(spec):
    """A finite table's dual is piecewise linear, whatever its sampled decay ratios do."""
    try:
        geo = estimate_geometry(spec)
    except (ValueError, ConvergenceError):
        hypothesis.assume(False)  # an unbounded dual, a flat direction or no probe direction
    assert geo.kind == "polyhedral"
    assert geo.L == min(geo.ratios)


def _first_bad_entry(r, delta_max, states):
    """Path and message of the first bad entry of finite tables, checked one
    entry at a time in table order: the oracle for NetworkSpec's validation."""
    for i, st_ in enumerate(states):
        for k, act in enumerate(st_.actions):
            path = f"states[{i}].actions[{k}]"
            if not math.isfinite(act.cost):
                return f"{path}.cost", f"must be finite, got {act.cost!r}"
            for name, vec in (("arrivals", act.arrivals), ("services", act.services)):
                if vec.shape != (r,):
                    return f"{path}.{name}", f"expected length {r}, got shape {vec.shape}"
                for j, v in enumerate(vec):
                    if not (-1e-12 <= v <= delta_max + 1e-12):
                        return (f"{path}.{name}[{j}]",
                                f"must lie in [0, delta_max={delta_max}], got {v:g}")
    return None


# (field, value): a cost, an entry of a traffic vector, or a vector's length
# change.  The entries at -1e-12 and delta_max + 1e-12 are the range's ends
# and pass; the ones a float beyond them fail.
_CORRUPTIONS = [("cost", math.nan), ("cost", math.inf), ("cost", -math.inf),
                ("entry", math.nan), ("entry", "below"), ("entry", "above"),
                ("entry", "lo"), ("entry", "hi"), ("length", -1), ("length", 1)]


def _corrupt(act, r, delta_max, field, value, name="arrivals", j=0):
    if field == "cost":
        act.cost = value
    elif field == "length":
        setattr(act, name, np.zeros(r + value))
    elif j < getattr(act, name).size:
        hi = delta_max + 1e-12
        getattr(act, name)[j] = {"below": np.nextafter(-1e-12, -np.inf), "lo": -1e-12, "hi": hi,
                                 "above": np.nextafter(hi, np.inf)}.get(value, value)


def _copy_states(spec):
    return [StateSpec(s.prob, [ActionRecord(a.cost, a.arrivals.copy(), a.services.copy())
                               for a in s.actions]) for s in spec.states]


def _assert_validates_like_the_oracle(spec, states):
    want = _first_bad_entry(spec.r, spec.delta_max, states)
    if want is None:
        NetworkSpec(spec.name, spec.r, spec.delta_max, states)
        return
    with pytest.raises(ValidationError) as err:
        NetworkSpec(spec.name, spec.r, spec.delta_max, states)
    assert (err.value.path, str(err.value)) == (want[0], f"{want[0]}: {want[1]}")


@pytest.mark.parametrize("name", ["arrivals", "services"])
@pytest.mark.parametrize("field,value", _CORRUPTIONS)
def test_validation_reports_the_first_of_two_bad_actions(field, value, name):
    """One corruption of each kind in action 1, an out-of-range entry after
    it in action 2 and a short vector in the next state."""
    spec = scenarios.two_queue().spec
    states = _copy_states(spec)
    _corrupt(states[0].actions[1], spec.r, spec.delta_max, field, value, name, j=1)
    _corrupt(states[0].actions[2], spec.r, spec.delta_max, "entry", "above", "services")
    _corrupt(states[1].actions[0], spec.r, spec.delta_max, "length", -1)
    _assert_validates_like_the_oracle(spec, states)


@settings(max_examples=100, deadline=None)
@given(spec=finite_specs(), data=st.data())
def test_validation_reports_the_first_bad_entry(spec, data):
    """Corrupt one to four entries of generated tables (see _CORRUPTIONS):
    the error names the first bad entry in table order, with the per-entry
    loop's path and message, and tables with none pass."""
    states = _copy_states(spec)
    for _ in range(data.draw(st.integers(1, 4), label="corruptions")):
        i = data.draw(st.integers(0, len(states) - 1), label="state")
        act = data.draw(st.sampled_from(states[i].actions), label="action")
        field, value = data.draw(st.sampled_from(_CORRUPTIONS), label="corruption")
        name = data.draw(st.sampled_from(("arrivals", "services")), label="vector")
        _corrupt(act, spec.r, spec.delta_max, field, value, name,
                 data.draw(st.integers(0, spec.r - 1), label="entry"))
    _assert_validates_like_the_oracle(spec, states)
