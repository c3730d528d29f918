"""Network model primitives.

A scenario is a finite-state description of a stochastic network with r
queues: each slot an i.i.d. network state is drawn, the controller picks an
action from that state's feasible set, and the action determines a cost,
per-queue arrivals and per-queue service offers.  Backlogs evolve by the
idle-fill queue law

    U_j(t+1) = max[U_j(t) - mu_j(t), 0] + A_j(t).

Action sets are either finite tables (list of ActionRecord) or a scalar
continuous decision on a closed interval with closed-form cost/arrival/
service maps.  ``delta_max`` is the uniform per-queue traffic bound: every
arrival and service entry lies in [0, delta_max], so a backlog vector moves
by at most B = sqrt(r) * delta_max in Euclidean norm per slot.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "ActionRecord",
    "ContinuousActions",
    "StateSpec",
    "NetworkSpec",
    "sample_state",
    "sample_states",
    "queue_update",
    "one_step_distance_contract_check",
    "spec_from_dict",
    "load_spec_json",
    "spec_to_dict",
    "substream",
]

_PROB_TOL = 1e-9
_RANGE_TOL = 1e-12
_F64 = np.dtype(float)


class ValidationError(ValueError):
    """Scenario config rejected.  ``path`` names the offending entry."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class _Record:
    """Base of the package's dataclasses: a subclass becomes one, with ``repr=False, eq=False``.

    The repr and == below spare import generating a pair per class and keep what those
    did: the same text (``...`` on recursion), == on the compare fields' tuples of one
    class (NotImplemented across classes), and no hash.
    """

    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(cls, repr=False, eq=False)

    @reprlib.recursive_repr()
    def __repr__(self):
        return self.__class__.__qualname__ + "(" + ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr) + ")"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = [f.name for f in fields(self) if f.compare]
        return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)


class ActionRecord(_Record):
    """One feasible action: cost plus per-queue arrival and service vectors.

    Keeps a Python-float cost and float64 ndarray vectors as given (what
    ``float`` and ``np.asarray`` return for them) and converts other inputs.
    """

    cost: float
    arrivals: np.ndarray
    services: np.ndarray

    def __post_init__(self):
        if type(self.cost) is not float:
            self.cost = float(self.cost)
        if type(self.arrivals) is not np.ndarray or self.arrivals.dtype is not _F64:
            self.arrivals = np.asarray(self.arrivals, dtype=float)
        if type(self.services) is not np.ndarray or self.services.dtype is not _F64:
            self.services = np.asarray(self.services, dtype=float)


class ContinuousActions(_Record):
    """Scalar decision x in [lo, hi] with closed-form maps.

    ``dual_argmin(V, u) -> x`` must return the minimizer of
    V*cost(x) + u . (arrivals(x) - services(x)) over [lo, hi]; it is the
    one piece of scenario knowledge the generic machinery cannot derive
    from a table.  ``arrivals(x)`` and ``services(x)`` must return numpy
    arrays of shape (r,), which the single-run simulation reads with tolist.
    """

    lo: float
    hi: float
    cost: Callable[[float], float]
    arrivals: Callable[[float], np.ndarray]
    services: Callable[[float], np.ndarray]
    dual_argmin: Callable[[float, np.ndarray], float]


class StateSpec(_Record):
    """One network state: its probability and feasible action set."""

    prob: float
    actions: "list[ActionRecord] | ContinuousActions"


class NetworkSpec(_Record):
    """Full scenario: r queues, traffic bound delta_max, i.i.d. states."""

    name: str
    r: int
    delta_max: float
    states: list[StateSpec]
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity: _run_batched keys dicts by spec

    def __post_init__(self):
        self._validate()

    # -- derived quantities -------------------------------------------------

    @property
    def B(self) -> float:
        """One-slot norm change bound B = sqrt(r) * delta_max."""
        return math.sqrt(self.r) * self.delta_max

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def probs(self) -> np.ndarray:
        return np.array([s.prob for s in self.states])

    @property
    def is_finite(self) -> bool:
        """True when every state carries a finite action table (all are of state 0's kind)."""
        return isinstance(self.states[0].actions, list)

    # -- validation ---------------------------------------------------------

    def _validate(self):
        if not isinstance(self.r, int) or self.r < 1:
            raise ValidationError("r", f"must be a positive integer, got {self.r!r}")
        if not (self.delta_max > 0):
            raise ValidationError("delta_max", f"must be positive, got {self.delta_max!r}")
        if not self.states:
            raise ValidationError("states", "must contain at least one state")
        finite = isinstance(self.states[0].actions, list)
        bad = self._first_bad_record() if finite else None
        total = 0.0
        for i, st in enumerate(self.states):
            path = f"states[{i}]"
            if not (st.prob >= 0):
                raise ValidationError(f"{path}.prob", f"must be nonnegative, got {st.prob!r}")
            total += st.prob
            if not isinstance(st.actions, (list, ContinuousActions)):
                raise ValidationError(f"{path}.actions", f"unsupported action set {type(st.actions).__name__}")
            if isinstance(st.actions, list) != finite:
                raise ValidationError(f"{path}.actions", "mixes finite tables and continuous "
                                      "families; every state must be of state 0's kind")
            if finite:
                if not st.actions:
                    raise ValidationError(f"{path}.actions", "must contain at least one action")
                if bad and bad[0] == i:
                    self._validate_action(f"{path}.actions[{bad[1]}]", st.actions[bad[1]])
            else:
                self._validate_continuous(path, st.actions)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValidationError("states", f"probabilities sum to {total!r}, expected 1")

    def _first_bad_record(self) -> "tuple[int, int] | None":
        """(state, action) of the first bad record of the tables, found in one stacked pass.

        ``_validate`` raises for it on reaching its state, so errors keep state order, and
        ``_validate_action`` names its first bad entry: cost, arrivals[j], then services[j].
        The stacked costs and traffic are kept in ``_stacks`` for ``tables()``.
        """
        tabs = [(i, st.actions) for i, st in enumerate(self.states) if isinstance(st.actions, list)]
        acts = [a for _, t in tabs for a in t]
        want = (self.r,)
        n = next((k for k, a in enumerate(acts)
                  if a.arrivals.shape != want or a.services.shape != want), len(acts))
        if n:
            lo, hi = -_RANGE_TOL, self.delta_max + _RANGE_TOL
            cost = np.array([a.cost for a in acts[:n]])
            # row k: record k's arrivals, then its services
            traffic = np.concatenate([v for a in acts[:n] for v in (a.arrivals, a.services)])
            traffic = traffic.reshape(n, 2 * self.r)
            ok = np.isfinite(cost) & ((traffic >= lo) & (traffic <= hi)).all(axis=1)
            if not ok.all():
                n = int(ok.argmin())
            self._stacks = cost, traffic
        for i, t in tabs:
            if n < len(t):
                return i, n
            n -= len(t)
        return None

    def _validate_action(self, path: str, act: ActionRecord):
        if not math.isfinite(act.cost):
            raise ValidationError(f"{path}.cost", f"must be finite, got {act.cost!r}")
        for name, vec in (("arrivals", act.arrivals), ("services", act.services)):
            if vec.shape != (self.r,):
                raise ValidationError(f"{path}.{name}", f"expected length {self.r}, got shape {vec.shape}")
            for j, v in enumerate(vec):
                if not (-_RANGE_TOL <= v <= self.delta_max + _RANGE_TOL):
                    raise ValidationError(f"{path}.{name}[{j}]",
                                          f"must lie in [0, delta_max={self.delta_max}], got {float(v)!r}")

    def _validate_continuous(self, path: str, fam: ContinuousActions):
        if not (math.isfinite(fam.lo) and math.isfinite(fam.hi) and fam.lo <= fam.hi):
            raise ValidationError(f"{path}.actions", f"interval [{fam.lo}, {fam.hi}] is not a valid closed interval")
        # Spot-check the maps at the interval ends and midpoint.
        for x in (fam.lo, 0.5 * (fam.lo + fam.hi), fam.hi):
            here, traffic = f"{path}.actions(x={x:g})", (fam.arrivals(x), fam.services(x))
            for name, vec in zip(("arrivals", "services"), traffic):
                if not isinstance(vec, np.ndarray):
                    raise ValidationError(f"{here}.{name}", f"must be a numpy array, got {vec!r}")
            self._validate_action(here, ActionRecord(fam.cost(x), *traffic))


# -- sampling and dynamics --------------------------------------------------


def _cumprobs(spec: NetworkSpec) -> np.ndarray:
    cum = getattr(spec, "_cum", None)
    if cum is None:
        cum = np.cumsum(spec.probs)
        cum[-1] = 1.0
        spec._cum = cum
    return cum


def sample_state(spec: NetworkSpec, rng: np.random.Generator) -> int:
    """Draw one state index from the scenario's state distribution."""
    return int(np.searchsorted(_cumprobs(spec), rng.random(), side="right"))


def sample_states(spec: NetworkSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. state indices.

    Consumes the generator stream exactly like ``n`` calls of
    :func:`sample_state`, so batched and one-at-a-time sampling agree.
    """
    return np.searchsorted(_cumprobs(spec), rng.random(n), side="right").astype(np.int64)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Seeded generator for substream ``key`` of ``seed``.

    The stream-splitting rule: run index (and any deeper indices) become the
    spawn key of a ``SeedSequence``, so distinct run indices give statistically
    independent, reproducible streams.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def queue_update(u: np.ndarray, mu: np.ndarray, a: np.ndarray) -> np.ndarray:
    """One slot of the idle-fill queue law max[u - mu, 0] + a."""
    return np.maximum(u - mu, 0.0) + a


def one_step_distance_contract_check(u, mu, a, target, b: float, tol: float = 1e-9) -> bool:
    """Check the one-slot squared-distance contract against ``target``.

    With u' = max[u - mu, 0] + a and any target point t,

        ||u' - t||^2 <= ||u - t||^2 + 2 B^2 - 2 (t - u) . (a - mu)

    whenever ||a - mu|| <= B and entries are nonnegative.  ``b`` is the
    scenario's change bound B.
    """
    u = np.asarray(u, dtype=float)
    mu = np.asarray(mu, dtype=float)
    a = np.asarray(a, dtype=float)
    target = np.asarray(target, dtype=float)
    nxt = queue_update(u, mu, a)
    lhs = float(np.dot(nxt - target, nxt - target))
    rhs = float(np.dot(u - target, u - target)) + 2.0 * b * b \
        - 2.0 * float(np.dot(target - u, a - mu))
    return lhs <= rhs + tol


# -- config schema ----------------------------------------------------------


def _require_keys(d: dict, path: str, required: Sequence[str]):
    for key in required:
        if key not in d:
            raise ValidationError(path, f"missing required key {key!r}")
    for key in d:
        if key not in required:
            raise ValidationError(f"{path}.{key}", "unknown key")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def spec_from_dict(d: dict) -> NetworkSpec:
    """Build and validate a NetworkSpec from the scenario config schema.

    Schema: {name, r, delta_max, states: [{prob, actions: [{cost,
    arrivals: [r], services: [r]}]}]}.  Raises :class:`ValidationError`
    naming the offending path.
    """
    if not isinstance(d, dict):
        raise ValidationError("$", f"expected an object, got {type(d).__name__}")
    _require_keys(d, "$", ("name", "r", "delta_max", "states"))
    if not isinstance(d["name"], str):
        raise ValidationError("name", "expected a string")
    if isinstance(d["r"], bool) or not isinstance(d["r"], int):
        raise ValidationError("r", "expected an integer")
    r = d["r"]
    delta_max = _as_number(d["delta_max"], "delta_max")
    if not isinstance(d["states"], list):
        raise ValidationError("states", "expected a list")
    states = []
    for i, sd in enumerate(d["states"]):
        spath = f"states[{i}]"
        if not isinstance(sd, dict):
            raise ValidationError(spath, "expected an object")
        _require_keys(sd, spath, ("prob", "actions"))
        prob = _as_number(sd["prob"], f"{spath}.prob")
        if not isinstance(sd["actions"], list):
            raise ValidationError(f"{spath}.actions", "expected a list")
        actions = []
        for k, ad in enumerate(sd["actions"]):
            apath = f"{spath}.actions[{k}]"
            if not isinstance(ad, dict):
                raise ValidationError(apath, "expected an object")
            _require_keys(ad, apath, ("cost", "arrivals", "services"))
            cost = _as_number(ad["cost"], f"{apath}.cost")
            vecs = {}
            for name in ("arrivals", "services"):
                raw = ad[name]
                if not isinstance(raw, list) or len(raw) != r:
                    raise ValidationError(f"{apath}.{name}", f"expected a list of length {r}")
                vecs[name] = [_as_number(v, f"{apath}.{name}[{j}]") for j, v in enumerate(raw)]
            actions.append(ActionRecord(cost, vecs["arrivals"], vecs["services"]))
        states.append(StateSpec(prob, actions))
    # NetworkSpec validation reports range errors with the same path syntax.
    return NetworkSpec(d["name"], r, delta_max, states)


def spec_to_dict(spec: NetworkSpec) -> dict:
    """Serialize a finite-table NetworkSpec to the scenario config schema."""
    if not spec.is_finite:
        raise ValueError("only finite action tables can be serialized")
    return {
        "name": spec.name,
        "r": spec.r,
        "delta_max": spec.delta_max,
        "states": [
            {
                "prob": st.prob,
                "actions": [
                    {
                        "cost": act.cost,
                        "arrivals": [float(v) for v in act.arrivals],
                        "services": [float(v) for v in act.services],
                    }
                    for act in st.actions
                ],
            }
            for st in spec.states
        ],
    }


def load_spec_json(path: str) -> NetworkSpec:
    """Read a scenario config file and validate it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError("$", f"not valid JSON ({exc})") from exc
    return spec_from_dict(d)


# -- precomputed action tables ----------------------------------------------


class _Tables(_Record):
    """Numpy views of a finite scenario, per state and stacked.

    ``sma`` is services minus arrivals, the coefficient of the backlog vector
    in every per-slot score.  ``cost`` and ``sma`` hold one array per state,
    and ``arr_rows``/``svc_rows`` the arrival and service tables as one list
    of row arrays per state, which a per-slot loop indexes without building
    a view; all are slices or rows of one stack over every record.  The
    ``*_pad`` stacks hold the same tables as (S, A, r) / (S, A) arrays
    padded to the largest action count A, so batched code can gather many
    states at once.  Padded actions have cost +inf and zero traffic, so
    no score that subtracts V * cost (V > 0) ever picks them.
    """

    cost: list[np.ndarray]
    sma: list[np.ndarray]
    arr_rows: list[list[np.ndarray]]
    svc_rows: list[list[np.ndarray]]
    cost_pad: np.ndarray
    arr_pad: np.ndarray
    svc_pad: np.ndarray
    sma_pad: np.ndarray
    cost_max: float  # the largest |cost| of a record


def tables(spec: NetworkSpec) -> _Tables:
    """Precompute per-state and padded action arrays (cached on the spec)."""
    cached = getattr(spec, "_tables", None)
    if cached is not None:
        return cached
    if not spec.is_finite:
        raise ValueError("tables() requires finite action tables")
    cost_all, traffic = spec._stacks  # every record's, as validation stacked them
    arr_all, svc_all = traffic[:, :spec.r], traffic[:, spec.r:]
    sma_all = svc_all - arr_all
    counts = [len(st.actions) for st in spec.states]
    bounds = np.cumsum([0] + counts).tolist()
    spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    cost = [cost_all[sl] for sl in spans]
    sma = [sma_all[sl] for sl in spans]
    arr_rows = [list(arr_all[sl]) for sl in spans]
    svc_rows = [list(svc_all[sl]) for sl in spans]
    # every record's (state, action) position in the padded stacks
    rows = np.repeat(np.arange(spec.n_states), counts)
    pos = (rows, np.arange(len(cost_all)) - np.take(bounds, rows))
    shape = (spec.n_states, max(counts))
    cost_pad = np.full(shape, np.inf)
    arr_pad, svc_pad = np.zeros(shape + (spec.r,)), np.zeros(shape + (spec.r,))
    cost_pad[pos], arr_pad[pos], svc_pad[pos] = cost_all, arr_all, svc_all
    tab = _Tables(cost, sma, arr_rows, svc_rows, cost_pad, arr_pad, svc_pad, svc_pad - arr_pad,
                  float(np.abs(cost_all).max()))
    spec._tables = tab
    return tab
