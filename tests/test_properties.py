"""Property-based checks on generated finite-table scenarios."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lyapnet import sim  # noqa: E402
from lyapnet.model import ActionRecord, NetworkSpec, StateSpec, substream  # noqa: E402
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
