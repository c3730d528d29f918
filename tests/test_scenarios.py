import json
import math

import numpy as np
import pytest

from lyapnet import scenarios
from lyapnet.dual import evaluate_dual, find_optimal_multiplier
from lyapnet.model import NetworkSpec, spec_to_dict
from lyapnet.scenarios import BUILTIN_NAMES, ScenarioHandle, as_handle, by_name


# -- registry ----------------------------------------------------------------


def test_builtin_names():
    assert set(BUILTIN_NAMES) == {
        "two-queue", "five-queue-chain",
        "single-queue-continuous", "single-queue-discrete",
    }


def test_five_queue_alias(five):
    assert by_name("five-queue").name == five.name


def test_unknown_name():
    with pytest.raises(KeyError, match="built-ins"):
        by_name("six-queue")


def test_as_handle_passthrough(five, tiny_spec):
    assert as_handle(five) is five
    wrapped = as_handle(tiny_spec)
    assert isinstance(wrapped, ScenarioHandle)
    assert wrapped.u_star is None and wrapped.exogenous is None
    with pytest.raises(TypeError):
        as_handle("five-queue-chain")


# -- structure ---------------------------------------------------------------


def test_five_queue_shape(five):
    spec = five.spec
    assert spec.r == 5
    assert spec.delta_max == 2.0
    assert spec.B == pytest.approx(2.0 * math.sqrt(5.0))
    assert spec.n_states == 64
    assert all(len(st.actions) == 32 for st in spec.states)
    assert abs(float(spec.probs.sum()) - 1.0) < 1e-12


def test_two_queue_shape(two):
    spec = two.spec
    assert spec.r == 2
    assert spec.n_states == 8
    assert all(len(st.actions) == 4 for st in spec.states)


def test_single_queue_shapes(contq, discq):
    assert contq.spec.r == 1 and not contq.spec.is_finite
    assert discq.spec.r == 1 and discq.spec.is_finite
    assert discq.spec.n_states == 2
    assert all(len(st.actions) == 4 for st in discq.spec.states)


def test_chain_source_is_state_determined(five):
    """Head-queue arrivals depend on the state only, never on the action."""
    spec = five.spec
    burst_mass = 0.0
    for st in spec.states:
        head = {float(act.arrivals[0]) for act in st.actions}
        assert len(head) == 1
        lvl = head.pop()
        assert lvl in (0.0, 2.0)
        if lvl == 2.0:
            burst_mass += st.prob
    assert burst_mass == pytest.approx(5.0 / 8.0)


def test_chain_relay_feeds_next_queue(five):
    """Internal arrivals equal the upstream service decision."""
    spec = five.spec
    for st in spec.states:
        for act in st.actions:
            np.testing.assert_array_equal(act.arrivals[1:], act.services[:-1])


def _chain_tables_per_action(n):
    """(prob, [(cost, arrivals, services)]) per state of the n-queue chain,
    built one action at a time: the oracle for the array-built tables."""
    states = []
    for s in range(2 ** (n + 1)):
        rbit, cbits = divmod(s, 2 ** n)
        rate = np.array([2.0 if (cbits >> j) & 1 else 1.0 for j in range(n)])
        prob = (5.0 / 8.0 if rbit else 1.0 - 5.0 / 8.0) * 0.5 ** n
        actions = []
        for k in range(2 ** n):
            x = np.array([(k >> j) & 1 for j in range(n)], dtype=float)
            mu = x * rate
            arr = np.concatenate(([2.0 if rbit else 0.0], mu[:-1]))
            actions.append((float(x.sum()), arr, mu))
        states.append((prob, actions))
    return states


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chain_tables_equal_per_action_construction(n):
    spec = scenarios._chain_spec("chain", n)
    want = _chain_tables_per_action(n)
    assert (spec.r, spec.delta_max, spec.n_states) == (n, 2.0, len(want))
    for st, (prob, actions) in zip(spec.states, want):
        assert st.prob.hex() == prob.hex() and len(st.actions) == len(actions)
        for act, (cost, arr, mu) in zip(st.actions, actions):
            assert type(act.cost) is float and act.cost.hex() == cost.hex()
            for got, ref in ((act.arrivals, arr), (act.services, mu)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


def test_tags(five, two, contq, discq):
    assert five.exogenous == two.exogenous == (0,)
    assert contq.exogenous == discq.exogenous == (0,)


# -- registered closed forms -------------------------------------------------


def test_closed_form_values(five, two, contq, discq):
    np.testing.assert_array_equal(five.u_star(100.0), [500.0, 400.0, 300.0, 200.0, 100.0])
    np.testing.assert_array_equal(two.u_star(50.0), [100.0, 50.0])
    assert contq.u_star(100.0)[0] == pytest.approx(100.0 * math.exp(0.5))
    assert discq.u_star(1.0)[0] == pytest.approx(
        2.0 * (math.exp(0.75) - math.exp(0.25)))
    assert five.f_star == 3.75
    assert two.f_star == 1.5
    assert contq.f_star == pytest.approx(math.exp(0.5) - 1.0)
    assert discq.f_star == pytest.approx((math.exp(0.75) + math.exp(0.25)) / 2.0 - 1.0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("V", [1.0, 50.0])
def test_f_star_equals_scaled_dual_optimum(name, V):
    handle = by_name(name)
    q = evaluate_dual(handle.spec, V, handle.u_star(V)).value
    assert q / V == pytest.approx(handle.f_star, abs=1e-9)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("V", [1.0, 50.0])
def test_registered_multiplier_survives_probe(name, V):
    res = find_optimal_multiplier(by_name(name), V)
    assert res.method == "closed-form"
    assert res.probe_ok


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("V", [1.0, 50.0])
def test_numeric_search_agrees_with_closed_form(name, V):
    handle = by_name(name)
    res = find_optimal_multiplier(handle, V, method="numeric")
    assert res.method == "numeric"
    registered = handle.u_star(V)
    if handle.spec.is_finite:
        np.testing.assert_array_equal(res.u_star, registered)
        assert abs(res.value / V - handle.f_star) <= 1e-12
    else:
        assert np.abs(res.u_star - registered).max() <= 1e-14 * V


# -- file scenarios ----------------------------------------------------------


def test_load_from_file_round_trip(tmp_path, discq):
    p = tmp_path / "sq.json"
    p.write_text(json.dumps(spec_to_dict(discq.spec)))
    loaded = scenarios.load_from_file(str(p))
    assert isinstance(loaded.spec, NetworkSpec)
    assert loaded.u_star is None and loaded.f_star is None
    assert loaded.spec.n_states == discq.spec.n_states
    got = evaluate_dual(loaded.spec, 10.0, [7.0]).value
    want = evaluate_dual(discq.spec, 10.0, [7.0]).value
    assert got == want


def test_package_exports_come_from_module_exports():
    """Every name lyapnet exports is in the __all__ of the module that defines it.

    A constant carries no ``__module__``; it must be in some module's __all__.
    """
    import importlib

    import lyapnet

    modules = [importlib.import_module(f"lyapnet.{m}")
               for m in ("model", "scenarios", "dual", "sched", "sim")]
    for name in lyapnet.__all__:
        if name == "__version__":
            continue
        home = getattr(getattr(lyapnet, name), "__module__", None)
        homes = [m for m in modules if m.__name__ == home] if home else modules
        assert any(name in m.__all__ for m in homes), f"{name} is in no __all__ of {home}"
