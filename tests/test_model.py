import dataclasses
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
    _Record,
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


# -- shared record methods ---------------------------------------------------


def _package_dataclasses():
    from lyapnet import _svg, dual, model, scenarios, sched, sim

    return [c for m in (model, scenarios, dual, sched, sim, _svg) for c in vars(m).values()
            if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == m.__name__]


_RECORDS = _package_dataclasses()


def _stock(cls):
    """The class stock dataclasses makes over cls's fields, with generated repr and ==."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(repr=f.repr, compare=f.compare))
        for f in dataclasses.fields(cls)])


def _bare(cls, values):
    """An instance of cls holding ``values``, without running its __init__ checks."""
    obj = object.__new__(cls)
    for f, v in zip(dataclasses.fields(cls), values):
        setattr(obj, f.name, v)
    return obj


def _outcome(fn):
    try:
        return "returns", fn()
    except Exception as e:  # the stock method's exception type is part of its behaviour
        return "raises", type(e)


def test_every_package_dataclass_shares_the_record_methods():
    assert len(_RECORDS) == 25
    for cls in _RECORDS:
        assert issubclass(cls, _Record), cls
        own = {"__repr__", "__eq__"} & set(vars(cls))
        assert own == ({"__eq__"} if cls is NetworkSpec else set()), cls


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__name__)
def test_record_repr_and_eq_match_stock_dataclasses(cls):
    """repr, == and != give what generated methods give, across classes too,
    and hash() raises; NetworkSpec compares and hashes by identity."""
    ref = _stock(cls)
    n = len(dataclasses.fields(cls))
    arr, nan = np.arange(3.0), math.nan
    rows = [list(range(n)), [f"s{k}'\"" for k in range(n)], [nan] * n, [arr] * n,
            [None] * n, [np.array([1.5])] * n, [(k, [k / 3]) for k in range(n)]]
    for x in rows:
        a, ra = _bare(cls, x), ref(*x)
        assert repr(a) == repr(ra)
        for y in rows + [x[:-1] + ["other"], ["other"] + x[1:], [v.copy() if v is arr else v
                                                                for v in x]]:
            b, rb = _bare(cls, y), ref(*y)
            if cls is NetworkSpec:
                assert (a == b, a != b, a == a) == (a is b, a is not b, True)
                continue
            assert _outcome(lambda: a == b) == _outcome(lambda: ra == rb)
            assert _outcome(lambda: a != b) == _outcome(lambda: ra != rb)
        assert a.__eq__(ra) is NotImplemented and ra.__eq__(a) is NotImplemented
        assert (a == ra, a != ra, a == 1) == (False, True, False)
        if cls is NetworkSpec:
            assert hash(a) == object.__hash__(a)
        else:
            with pytest.raises(TypeError):
                hash(a)
    loop, rloop = _bare(cls, [None] * n), ref(*[None] * n)
    first = dataclasses.fields(cls)[0].name
    setattr(loop, first, loop)
    setattr(rloop, first, rloop)
    assert repr(loop) == repr(rloop)  # "..." where the record recurses into itself


def test_action_record_keeps_float_and_float64_inputs():
    arr, svc = np.array([0.5, 1.0]), np.array([1.0, 0.0])
    act = ActionRecord(2.0, arr, svc)
    assert act.arrivals is arr and act.services is svc
    conv = ActionRecord(np.float64(2.0), [1, 0], np.array([1, 0], dtype=np.int64))
    assert type(conv.cost) is float and conv.cost == 2.0
    for vec in (conv.arrivals, conv.services):
        assert type(vec) is np.ndarray and vec.dtype == np.float64
        np.testing.assert_array_equal(vec, [1.0, 0.0])


# -- validation order --------------------------------------------------------


def _good():
    return [ActionRecord(0.0, [0.0, 0.0], [0.0, 0.0]), ActionRecord(1.0, [1.0, 0.0], [0.0, 2.0])]


def _bad():  # arrivals[1] of action 1 exceeds delta_max = 2
    return [ActionRecord(0.0, [0.0, 0.0], [0.0, 0.0]), ActionRecord(1.0, [0.0, 2.5], [0.0, 1.0])]


def _family():
    return ContinuousActions(0.0, 1.0, cost=lambda x: x, arrivals=lambda x: np.array([0.5, 0.0]),
                             services=lambda x: np.array([x, 0.0]), dual_argmin=lambda V, u: 0.0)


_RANGE = "must lie in [0, delta_max=2.0], got 2.5"
_MIXED = "mixes finite tables and continuous families; every state must be of state 0's kind"

# (probability, actions) per state, and the (path, message) the per-state
# checks raised before the tables were checked in one stacked pass
_ORDER_CASES = {
    "record-then-prob": ([(0.5, _bad), (-0.5, _good), (1.0, _good)],
                         ("states[0].actions[1].arrivals[1]", _RANGE)),
    "prob-then-record": ([(0.5, _good), (-0.5, _good), (1.0, _bad)],
                         ("states[1].prob", "must be nonnegative, got -0.5")),
    "prob-and-record-in-one-state": ([(-0.5, _bad), (1.5, _good)],
                                     ("states[0].prob", "must be nonnegative, got -0.5")),
    "empty-then-record": ([(0.5, _good), (0.5, list), (0.0, _bad)],
                          ("states[1].actions", "must contain at least one action")),
    "record-then-empty": ([(0.5, _bad), (0.5, list)],
                          ("states[0].actions[1].arrivals[1]", _RANGE)),
    "record-then-continuous": ([(0.5, _good), (0.25, _bad), (0.25, _family)],
                               ("states[1].actions[1].arrivals[1]", _RANGE)),
    "table-then-continuous": ([(0.5, _good), (0.5, _family)], ("states[1].actions", _MIXED)),
    "continuous-then-bad-table": ([(0.5, _family), (0.5, _bad)], ("states[1].actions", _MIXED)),
    "record-then-unsupported": ([(0.5, _bad), (0.5, lambda: ("not", "a", "list"))],
                                ("states[0].actions[1].arrivals[1]", _RANGE)),
    "last-state-only": ([(0.25, _good), (0.25, _good), (0.5, lambda: _good() + _bad())],
                        ("states[2].actions[3].arrivals[1]", _RANGE)),
    "last-state-short-vector": ([(0.5, _good), (0.5, lambda: _good() + [
        ActionRecord(0.0, [0.0], [0.0, 0.0])])],
        ("states[1].actions[2].arrivals", "expected length 2, got shape (1,)")),
    "record-then-bad-sum": ([(0.3, _good), (0.3, _bad)],
                            ("states[1].actions[1].arrivals[1]", _RANGE)),
}


def test_range_error_prints_the_value_with_g_format():
    """The value is a numpy scalar; the message shows 1, not np.float64(1.0)."""
    with pytest.raises(ValidationError) as err:
        NetworkSpec("range", 1, 0.5, [StateSpec(1.0, [ActionRecord(0.0, [1.0], [0.0])])])
    assert str(err.value) == "states[0].actions[0].arrivals[0]: must lie in [0, delta_max=0.5], got 1"


@pytest.mark.parametrize("case", list(_ORDER_CASES))
def test_validation_raises_the_first_error_in_state_order(case):
    states, (path, message) = _ORDER_CASES[case]
    with pytest.raises(ValidationError) as err:
        NetworkSpec("order", 2, 2.0, [StateSpec(p, build()) for p, build in states])
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")
