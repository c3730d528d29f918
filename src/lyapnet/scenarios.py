"""Built-in scenarios and the scenario file loader.

Each built-in returns a :class:`ScenarioHandle`: the validated
:class:`~lyapnet.model.NetworkSpec` plus registered closed forms (optimal
multiplier map V -> U*_V, optimal time-average cost f*_av) and which
queues receive exogenous arrivals (used only for drop accounting).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .model import (
    ActionRecord,
    ContinuousActions,
    NetworkSpec,
    StateSpec,
    _Record,
    load_spec_json,
)

__all__ = [
    "ScenarioHandle",
    "as_handle",
    "two_queue",
    "five_queue_chain",
    "single_queue_continuous",
    "single_queue_discrete",
    "load_from_file",
    "by_name",
    "BUILTIN_NAMES",
]


class ScenarioHandle(_Record):
    """A NetworkSpec bundled with registered scenario knowledge.

    ``u_star`` maps V to the optimal multiplier vector when a closed form
    is known.  ``exogenous`` lists the queues whose arrivals count as
    offered load in drop statistics; None means all queues.  The dual's
    shape near U*_0 is not stored: finite action tables give a polyhedral
    dual and continuous families a smooth one (``spec.is_finite``).
    """

    spec: NetworkSpec
    u_star: Callable[[float], np.ndarray] | None = None
    f_star: float | None = None
    exogenous: tuple[int, ...] | None = None

    @property
    def name(self) -> str:
        return self.spec.name


def as_handle(scenario) -> ScenarioHandle:
    """Wrap a bare NetworkSpec; pass handles through."""
    if isinstance(scenario, ScenarioHandle):
        return scenario
    if isinstance(scenario, NetworkSpec):
        return ScenarioHandle(spec=scenario)
    raise TypeError(f"expected ScenarioHandle or NetworkSpec, got {type(scenario).__name__}")


# -- tandem chains over on/off fading channels -------------------------------

_P_BURST = 5.0 / 8.0  # P(R = 2); arrival rate 1.25 into the head queue


def _chain_spec(name: str, n: int) -> NetworkSpec:
    """Tandem of n queues fed by a bursty source.

    State = (R, channels): R in {0, 2} with P(R=2) = 5/8, and an
    independent equiprobable good/bad channel per queue.  Action = a 0/1
    power allocation per queue; a powered queue serves 2 packets on a good
    channel and 1 on a bad one, and idle-fill forwarding makes queue j+1's
    arrivals equal queue j's service.  Cost is total power spent.

    State index = Rbit * 2^n + channel bits, action index = power bits;
    bit j corresponds to queue j, so index 0 is the all-idle action.
    """
    queues = np.arange(n)
    power = ((np.arange(2 ** n)[:, None] >> queues) & 1).astype(float)  # row k = action k
    cost = power.sum(axis=1).tolist()
    states = []
    for s in range(2 ** (n + 1)):
        rbit, cbits = divmod(s, 2 ** n)
        rate = np.where((cbits >> queues) & 1, 2.0, 1.0)
        prob = (_P_BURST if rbit else 1.0 - _P_BURST) * 0.5 ** n
        mu = power * rate
        arr = np.empty_like(mu)
        arr[:, 0] = 2.0 if rbit else 0.0
        arr[:, 1:] = mu[:, :-1]
        states.append(StateSpec(prob, [ActionRecord(c, a, m) for c, a, m in zip(cost, arr, mu)]))
    return NetworkSpec(name, n, 2.0, states)


def _chain(name: str, n: int, f_star: float) -> ScenarioHandle:
    """The n-queue chain with its closed forms; only queue 0 takes exogenous arrivals."""
    # Bad-channel indifference points: V at the tail queue, spaced by V upstream.
    coeff = np.arange(n, 0, -1, dtype=float)
    return ScenarioHandle(_chain_spec(name, n), lambda V: coeff * V, f_star, exogenous=(0,))


def two_queue() -> ScenarioHandle:
    """Two-queue tandem: 8 states, 4 actions per state, delta_max = 2."""
    return _chain("two-queue", 2, 1.5)


def five_queue_chain() -> ScenarioHandle:
    """Five-queue tandem: 64 states, 32 actions per state, delta_max = 2.

    U*_V = (5V, 4V, 3V, 2V, V) and the minimum time-average power is 3.75
    (each queue drains the 1.25 packets/slot load at average power 0.75 by
    spending good-channel slots first).
    """
    return _chain("five-queue-chain", 5, 3.75)


# -- single queue, rate-power control ---------------------------------------


def single_queue_continuous(mu_max: float = 2.0) -> ScenarioHandle:
    """One queue, Bernoulli(1/2) arrivals, continuous rate control.

    Serving at rate mu costs e^mu - 1 per slot, mu in [0, mu_max].  The
    per-slot score is maximized at mu = log(u/V) clamped to the interval,
    the optimal multiplier is U*_V = V e^(1/2), and the minimum average
    power is e^(1/2) - 1.  The dual is smooth near its maximizer.
    """

    def family(a: float) -> ContinuousActions:
        arr = np.array([a])

        def dual_argmin(V: float, u: np.ndarray) -> float:
            u1 = float(u[0])
            if u1 <= V:  # log(u/V) <= 0: idling is optimal
                return 0.0
            return min(math.log(u1 / V), mu_max)

        return ContinuousActions(
            lo=0.0,
            hi=mu_max,
            cost=lambda x: math.expm1(x),
            arrivals=lambda x: arr,
            services=lambda x: np.array([x]),
            dual_argmin=dual_argmin,
        )

    spec = NetworkSpec(
        "single-queue-continuous",
        1,
        max(mu_max, 1.0),
        [StateSpec(0.5, family(0.0)), StateSpec(0.5, family(1.0))],
    )
    return ScenarioHandle(
        spec=spec,
        u_star=lambda V: np.array([V * math.exp(0.5)]),
        f_star=math.exp(0.5) - 1.0,
        exogenous=(0,),
    )


def single_queue_discrete() -> ScenarioHandle:
    """One queue, Bernoulli(1/2) arrivals, four service levels.

    Rates mu in {0, 1/4, 3/4, 1} cost e^mu - 1 each.  The optimum time
    shares 1/4 and 3/4 equally, f*_av = (e^(3/4) + e^(1/4))/2 - 1, and
    U*_V = 2V (e^(3/4) - e^(1/4)) is the breakpoint where those two rates
    tie.  The dual is polyhedral.
    """
    rates = (0.0, 0.25, 0.75, 1.0)
    actions = [ActionRecord(math.expm1(m), [0.0], [m]) for m in rates]

    def state(a: float) -> StateSpec:
        return StateSpec(0.5, [ActionRecord(act.cost, [a], act.services) for act in actions])

    spec = NetworkSpec("single-queue-discrete", 1, 1.0, [state(0.0), state(1.0)])
    # written as the tie (V c(3/4) - V c(1/4)) / (3/4 - 1/4) so the closed
    # form and the numeric LP search agree bit for bit
    return ScenarioHandle(
        spec=spec,
        u_star=lambda V: np.array(
            [(V * math.expm1(0.75) - V * math.expm1(0.25)) / 0.5]),
        f_star=0.5 * (math.exp(0.75) + math.exp(0.25)) - 1.0,
        exogenous=(0,),
    )


# -- registry ----------------------------------------------------------------

_BUILTINS: dict[str, Callable[[], ScenarioHandle]] = {
    "two-queue": two_queue,
    "five-queue-chain": five_queue_chain,
    "single-queue-continuous": single_queue_continuous,
    "single-queue-discrete": single_queue_discrete,
}

_ALIASES = {"five-queue": "five-queue-chain"}

BUILTIN_NAMES = tuple(_BUILTINS)


def by_name(name: str) -> ScenarioHandle:
    """Look up a built-in scenario by its registry name."""
    key = _ALIASES.get(name, name)
    if key not in _BUILTINS:
        known = ", ".join(BUILTIN_NAMES)
        raise KeyError(f"unknown scenario {name!r}; built-ins: {known}")
    return _BUILTINS[key]()


def load_from_file(path: str) -> ScenarioHandle:
    """Load and validate a scenario config file (no closed forms attached)."""
    return ScenarioHandle(spec=load_spec_json(path))
