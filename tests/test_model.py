import json
import math

import numpy as np
import pytest

from lyapnet.model import (
    ActionRecord,
    ContinuousActions,
    NetworkSpec,
    StateSpec,
    ValidationError,
    load_spec_json,
    one_step_distance_contract_check,
    queue_update,
    sample_state,
    sample_states,
    spec_from_dict,
    spec_to_dict,
    substream,
    tables,
)


# -- dynamics ----------------------------------------------------------------


def test_queue_update_idle_fill():
    u = np.array([3.0, 0.0])
    out = queue_update(u, np.array([5.0, 2.0]), np.array([1.0, 1.0]))
    # service beyond the backlog is wasted, never borrowed
    np.testing.assert_array_equal(out, [1.0, 1.0])


def test_queue_update_exact_drain():
    out = queue_update(np.array([2.0]), np.array([2.0]), np.array([0.0]))
    np.testing.assert_array_equal(out, [0.0])


def test_queue_update_nonnegative_and_bounded_change():
    rng = np.random.default_rng(11)
    delta, r = 2.0, 5
    b = math.sqrt(r) * delta
    for _ in range(2000):
        u = rng.uniform(0.0, 10.0, r)
        mu = rng.uniform(0.0, delta, r)
        a = rng.uniform(0.0, delta, r)
        out = queue_update(u, mu, a)
        assert (out >= 0.0).all()
        assert np.linalg.norm(out - u) <= b + 1e-12


def test_distance_contract_random_draws():
    rng = np.random.default_rng(12)
    delta, r = 2.0, 5
    b = math.sqrt(r) * delta
    for _ in range(2000):
        u = rng.uniform(0.0, 50.0, r)
        mu = rng.uniform(0.0, delta, r)
        a = rng.uniform(0.0, delta, r)
        target = rng.uniform(0.0, 500.0, r)
        assert one_step_distance_contract_check(u, mu, a, target, b)


# -- rng plumbing ------------------------------------------------------------


def test_substream_matches_spawn_key_rule():
    got = substream(123, 4).random(8)
    want = np.random.default_rng(
        np.random.SeedSequence(123, spawn_key=(4,))).random(8)
    np.testing.assert_array_equal(got, want)


def test_substream_depth_and_independence():
    a = substream(9, 0).random(4)
    b = substream(9, 1).random(4)
    c = substream(9, 0, 1).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(a, substream(9, 0).random(4))


def test_sample_states_batched_equals_sequential(tiny_spec):
    n = 500
    batch = sample_states(tiny_spec, substream(3, 0), n)
    gen = substream(3, 0)
    seq = np.array([sample_state(tiny_spec, gen) for _ in range(n)])
    np.testing.assert_array_equal(batch, seq)


def test_sample_states_chunks_equal_one_draw(tiny_spec):
    """Consecutive draws from one generator continue its stream exactly."""
    whole = sample_states(tiny_spec, substream(5, 1), 1000)
    gen = substream(5, 1)
    chunks = [sample_states(tiny_spec, gen, c) for c in (256, 256, 1, 300, 187)]
    np.testing.assert_array_equal(np.concatenate(chunks), whole)


def test_sample_states_frequencies(tiny_spec):
    idx = sample_states(tiny_spec, substream(0, 0), 200_000)
    assert idx.min() >= 0 and idx.max() < tiny_spec.n_states
    freq = np.bincount(idx, minlength=2) / idx.size
    np.testing.assert_allclose(freq, [0.25, 0.75], atol=5e-3)


# -- spec construction and validation ----------------------------------------


def test_derived_quantities(tiny_spec):
    assert tiny_spec.r == 2
    assert tiny_spec.n_states == 2
    assert tiny_spec.is_finite
    assert tiny_spec.B == pytest.approx(math.sqrt(2) * 2.0)
    np.testing.assert_array_equal(tiny_spec.probs, [0.25, 0.75])


def _one_state(actions):
    return NetworkSpec("t", 1, 1.0, [StateSpec(1.0, actions)])


@pytest.mark.parametrize("build,path", [
    (lambda: NetworkSpec("t", 0, 1.0, [StateSpec(1.0, [ActionRecord(0, [0], [0])])]), "r"),
    (lambda: NetworkSpec("t", 1, 0.0, [StateSpec(1.0, [ActionRecord(0, [0], [0])])]), "delta_max"),
    (lambda: NetworkSpec("t", 1, 1.0, []), "states"),
    (lambda: NetworkSpec("t", 1, 1.0, [StateSpec(0.6, [ActionRecord(0, [0], [0])])]), "states"),
    (lambda: _one_state([]), "states[0].actions"),
    (lambda: _one_state([ActionRecord(0.0, [0.0, 0.0], [0.0])]), "states[0].actions[0].arrivals"),
    (lambda: _one_state([ActionRecord(0.0, [3.0], [0.0])]), "states[0].actions[0].arrivals[0]"),
    (lambda: _one_state([ActionRecord(0.0, [0.0], [-0.5])]), "states[0].actions[0].services[0]"),
    (lambda: _one_state([ActionRecord(math.inf, [0.0], [0.0])]), "states[0].actions[0].cost"),
])
def test_validation_rejects_bad_specs(build, path):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.path == path


def test_negative_state_probability_rejected():
    with pytest.raises(ValidationError) as err:
        NetworkSpec("t", 1, 1.0, [
            StateSpec(-0.5, [ActionRecord(0, [0], [0])]),
            StateSpec(1.5, [ActionRecord(0, [0], [0])]),
        ])
    assert err.value.path == "states[0].prob"


def _interval_family():
    return ContinuousActions(0.0, 1.0, cost=lambda x: x * x,
                             arrivals=lambda x: np.array([0.5]),
                             services=lambda x: np.array([x]),
                             dual_argmin=lambda V, u: min(max(u[0] / (2.0 * V), 0.0), 1.0))


@pytest.mark.parametrize("name", ["arrivals", "services"])
def test_continuous_maps_must_return_arrays(name):
    """A map returning a list is rejected when the spec is built, not mid-run."""
    fam = _interval_family()
    vec = getattr(fam, name)
    setattr(fam, name, lambda x: vec(x).tolist())
    with pytest.raises(ValidationError) as err:
        NetworkSpec("lists", 1, 1.0, [StateSpec(1.0, fam)])
    assert err.value.path == f"states[0].actions(x=0).{name}"
    assert "must be a numpy array" in str(err.value)


@pytest.mark.parametrize("first_finite", [True, False])
def test_mixed_finite_and_continuous_states_rejected(first_finite):
    table = [ActionRecord(0.0, [0.5], [1.0])]
    kinds = [table, _interval_family()]
    if not first_finite:
        kinds.reverse()
    with pytest.raises(ValidationError) as err:
        NetworkSpec("mixed", 1, 1.0, [StateSpec(0.5, kinds[0]), StateSpec(0.5, kinds[1])])
    assert err.value.path == "states[1].actions"
    assert "state 0" in str(err.value)


# -- config files ------------------------------------------------------------


def _tiny_dict():
    return {
        "name": "pair",
        "r": 2,
        "delta_max": 2.0,
        "states": [
            {"prob": 1.0, "actions": [
                {"cost": 0.5, "arrivals": [1.0, 0.0], "services": [0.0, 2.0]},
            ]},
        ],
    }


def test_dict_round_trip():
    spec = spec_from_dict(_tiny_dict())
    assert spec_to_dict(spec) == _tiny_dict()


def test_spec_from_dict_rejects_unknown_key():
    d = _tiny_dict()
    d["extra"] = 1
    with pytest.raises(ValidationError) as err:
        spec_from_dict(d)
    assert err.value.path == "$.extra"


def test_spec_from_dict_rejects_missing_key():
    d = _tiny_dict()
    del d["states"][0]["actions"][0]["services"]
    with pytest.raises(ValidationError) as err:
        spec_from_dict(d)
    assert err.value.path == "states[0].actions[0]"


def test_spec_from_dict_rejects_bool_numbers():
    d = _tiny_dict()
    d["delta_max"] = True
    with pytest.raises(ValidationError):
        spec_from_dict(d)


def test_spec_from_dict_rejects_short_vector():
    d = _tiny_dict()
    d["states"][0]["actions"][0]["arrivals"] = [1.0]
    with pytest.raises(ValidationError) as err:
        spec_from_dict(d)
    assert err.value.path == "states[0].actions[0].arrivals"


def test_load_spec_json(tmp_path):
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(_tiny_dict()))
    spec = load_spec_json(str(p))
    assert spec.name == "pair"
    assert spec.r == 2


def test_load_spec_json_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError):
        load_spec_json(str(p))


# -- precomputed tables ------------------------------------------------------


def test_tables_cached_and_consistent(tiny_spec):
    tab = tables(tiny_spec)
    assert tables(tiny_spec) is tab
    for i, st in enumerate(tiny_spec.states):
        for k, act in enumerate(st.actions):
            assert tab.cost[i][k] == act.cost
            np.testing.assert_array_equal(tab.arr_rows[i][k], act.arrivals)
            np.testing.assert_array_equal(tab.svc_rows[i][k], act.services)
            np.testing.assert_array_equal(
                tab.sma[i][k], act.services - act.arrivals)


def test_padded_tables_match_ragged_tables():
    spec = NetworkSpec("ragged", 2, 1.5, [
        StateSpec(0.3, [ActionRecord(0.25, [0.5, 1.25], [0.75, 0.0])]),
        StateSpec(0.7, [ActionRecord(1.5, [0.0, 0.125], [1.5, 1.0]),
                        ActionRecord(0.0, [1.0, 0.0], [0.0, 0.375]),
                        ActionRecord(2.25, [0.0, 0.0], [1.5, 1.5])]),
    ])
    tab = tables(spec)
    assert tab.cost_pad.shape == (2, 3)
    assert tab.arr_pad.shape == tab.svc_pad.shape == tab.sma_pad.shape == (2, 3, 2)
    for i, c in enumerate(tab.cost):
        n = len(c)
        np.testing.assert_array_equal(tab.cost_pad[i, :n], c)
        np.testing.assert_array_equal(tab.arr_pad[i, :n], tab.arr_rows[i])
        np.testing.assert_array_equal(tab.svc_pad[i, :n], tab.svc_rows[i])
        np.testing.assert_array_equal(tab.sma_pad[i, :n], tab.sma[i])
        assert np.isposinf(tab.cost_pad[i, n:]).all()
        for stack in (tab.arr_pad, tab.svc_pad, tab.sma_pad):
            assert (stack[i, n:] == 0.0).all()
