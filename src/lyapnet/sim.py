"""Simulation engine and empirical attraction statistics.

A run draws an i.i.d. state sequence, applies the chosen per-slot
algorithm, and reports time averages, drop accounting, and the deviation
record used to verify attraction: for plain greedy runs the deviation of
the backlog U(t) from the reference point, for delay-reduced runs the
deviation of the virtual backlog W(t).

Runs are reproducible: the state stream for (seed, stream) comes from a
dedicated substream, and internal repetitions (placeholder warmups,
bisection windows) use deeper substreams, so the same config yields a
bit-identical report.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .dual import (_check_vcost, _finite_argmin, _integer, _levels, find_optimal_multiplier,
                   per_state_optimum)
from .model import NetworkSpec, ValidationError, _Record, sample_states, substream, tables
from .scenarios import ScenarioHandle, as_handle
from .sched import (
    ALGORITHMS,
    bisection_placeholder,
    fqla_general_estimate,
    fqla_placeholder_ideal,
)

__all__ = [
    "RunConfig",
    "SimReport",
    "Trace",
    "DeviationCurve",
    "TailFit",
    "AbsorptionReport",
    "SimInvariantError",
    "TailFitError",
    "run",
    "run_many",
    "default_burn_in",
    "deviation_statistics",
    "curve_from_deviations",
    "fit_tail",
    "absorption_check",
    "write_trace_csv",
    "write_report_csv",
    "REPORT_CSV_NOTE",
]

_TOL = 1e-9


class SimInvariantError(RuntimeError):
    """A per-slot invariant failed; carries the slot and a state dump."""

    def __init__(self, message: str, slot: int, state: int, u, w=None):
        self.slot = slot
        self.state = state
        self.u = np.asarray(u)
        self.w = None if w is None else np.asarray(w)
        dump = f" at slot {slot}, state {state}, U={self.u}"
        if w is not None:
            dump += f", W={self.w}"
        super().__init__(message + dump)


class TailFitError(ValueError):
    pass


class RunConfig(_Record):
    """One simulation run.

    ``burn_in`` defaults to default_burn_in(V, slots).  ``stream`` selects
    the substream for this run under the shared seed; a sweep passes its
    one --stream to every cell, so the cells of one seed draw the same
    states at every V.  ``deviation_reference`` overrides the registered
    U*_V.  ``initial_backlog`` sets U(0) under qla and ``placeholders``
    W_cal under fqla-*, which otherwise place it by fqla_placeholder_ideal
    (fqla-ideal) or estimate it from ``general_*`` (fqla-general) or
    ``bisect_*`` (fqla-bisect).  Each of these six is rejected when set
    away from its default where unread (_READERS), the four estimator
    fields also beside ``placeholders``; left out or at its default value
    (``general_K=20``), it passes under every algorithm.
    ``check_invariants`` turns on the per-slot contract scans
    (nonnegativity, change bound, sandwich), run on each block of slots as
    it finishes, which abort the run with the offending slot.

    Memory: the only per-slot series a run keeps is, with a reference
    point, the post burn-in deviation array (8 bytes per slot); the
    per-slot states, actions, costs, slot-start U and W and drops are kept
    only under ``record_trace``.  The invariant scans need O(r _CHUNK) memory.
    """

    scenario: "ScenarioHandle | NetworkSpec"
    V: float
    algorithm: str = "qla"
    slots: int = 100_000
    seed: int = 0
    stream: int = 0
    burn_in: "int | None" = None
    record_trace: bool = False
    check_invariants: bool = False
    deviation_reference: "np.ndarray | None" = None
    placeholders: "np.ndarray | None" = None
    general_T: "int | None" = None
    general_K: int = 20
    bisect_T1: "int | None" = None
    bisect_guess: "float | None" = None
    initial_backlog: "np.ndarray | None" = None


class Trace(_Record):
    """Per-slot record; backlogs are slot-start values."""

    states: np.ndarray
    actions: np.ndarray
    costs: np.ndarray
    u: np.ndarray
    w: "np.ndarray | None"
    dropped: "np.ndarray | None"


class SimReport(_Record):
    """Summary of one run.

    Averages, the drop accounting (``drops`` / ``offered`` /
    ``drop_fraction``) and the deviation record all cover the post
    burn-in window, so ``drop_fraction`` is the long-run fraction of
    offered exogenous packets dropped rather than a startup artifact.
    ``final_*`` fields are end-of-run snapshots.  The only per-slot
    series are ``deviations`` (post burn-in, with a reference point, 8
    bytes per slot) and, under ``record_trace`` only, ``trace``; run_many
    leaves both None.  The averages are built block by block and equal
    numpy's mean over the whole series bit for bit.
    """

    scenario: str
    algorithm: str
    V: float
    seed: int
    stream: int
    slots: int
    burn_in: int
    avg_cost: float
    avg_backlog: np.ndarray
    avg_backlog_total: float
    final_backlog: np.ndarray
    drops: np.ndarray
    drop_fraction: float
    offered: float
    avg_virtual_backlog: "np.ndarray | None" = None
    avg_virtual_backlog_total: "float | None" = None
    final_virtual: "np.ndarray | None" = None
    placeholders: "np.ndarray | None" = None
    sandwich_violations: "int | None" = None
    deviation_reference: "np.ndarray | None" = None
    deviations: "np.ndarray | None" = None
    trace: "Trace | None" = None


class DeviationCurve(_Record):
    """m -> empirical fraction of slots with deviation > D + m."""

    D: float
    m: np.ndarray
    p: np.ndarray
    n_samples: int


class TailFit(_Record):
    """Least-squares exponential fit p ~ c_hat * exp(-beta_hat m)."""

    c_hat: float
    beta_hat: float
    r2: float
    m_lo: int
    m_hi: int
    n_bins: int


class AbsorptionReport(_Record):
    """Single-queue absorbing-interval verdict.

    ``interval`` is [min_i U*_si - B, max_i U*_si + B] from the per-state
    optima (+inf upper end when some state never pushes the backlog down).
    ``ok`` means the recorded path entered the interval and never left.
    """

    interval: tuple[float, float]
    per_state_optima: list[float]
    entered_at: "int | None"
    violations: int
    ok: bool


# -- core loop ---------------------------------------------------------------
#
# FQLA is QLA run on a virtual backlog W: W follows the plain queue law and
# drives every decision, while the actual backlog U admits arrivals only
# in so far as W stays at or above the placeholders.  QLA is the case
# without placeholders (U = W), so every algorithm goes through the one
# _loop.  _loop advances R runs of one spec together (run() passes R = 1,
# run_many a batch); each run has its own V, W(0), placeholders and state
# stream, and the block buffers gain a run axis: (rows + 1, R, r) with
# rows = max(1, _CHUNK // R), so a block holds about _CHUNK run-slots at
# any R.  No decision reads U, the costs or the drops, so _loop works
# through the run in blocks, each in two phases:
#
# 1. per slot, only what the next decision needs: the greedy choice and
#    the W queue law, written in place into the preallocated row W[t+1];
#    the block's actions are stored once at its end.  The code depends on R:
#    - R = 1: the dual._finite_argmin score shared with the one-shot API
#      and the numpy W law on (r,) rows, or the family's dual_argmin and the
#      law max(w - mu, 0.0) + a on W as Python floats, which round as numpy
#      does, -0.0 included: 3.1-3.4 against 4.7-6.8 us per slot over 300k
#      single-queue-continuous slots, but 2.9-3.2 against 2.1 us (timeit)
#      on a five-queue table row.  The batched steps below ran 1.35x to 2x
#      slower on single-queue-continuous and 2.4x to 4x on the five-queue;
#    - R > 1, finite tables: _stacked_step, one take/matmul/argmax over
#      the padded tables for all R runs, with V * cost from a stack built
#      once per distinct V.  It only pays from _STACKED_MIN_R runs (10k-20k
#      slot groups of two-queue and the five-queue chain, best of 7:
#      0.63x-0.76x the speed of R single-run calls at R = 2, 0.91x-1.27x at
#      R = 3, 1.07x-1.39x at R = 4, 2.1x-2.6x at R = 8), so _run_batched
#      gives a smaller finite group one R = 1 call per run;
#    - R > 1, continuous families: each run's dual_argmin, cost, arrivals
#      and services, then one vectorized W law per slot (already 1.04x-1.32x
#      the speed of two single-run calls at R = 2 on single-queue-continuous,
#      1.75x-1.83x at R = 8; float laws were 0-40% slower at R = 6);
# 2. per block, vectorized over slots and runs: costs, arrivals and
#    services gathered from the padded tables (recorded in phase 1 for
#    continuous families), admissions, drops, U by one cumsum over the
#    interleaved service and admission steps (a scalar recursion finishes
#    a queue from its first clamp at zero), the per-run sandwich violation
#    counts, the invariant scan when asked for, the deviations from a
#    reference point, the post burn-in arrival and drop sums chained onto
#    the running sums with cumsum (sequential order, like a per-slot +=),
#    and the window means of the costs, U and W, streamed in numpy's own
#    summation order by _WindowMean.
#
# Both phases apply the slot rule's operations in the order of its oracle,
# tests/test_properties.py::reference_loop, so decisions and backlogs agree
# bit for bit with qla_decide / rism_step / reference_loop at every R, and
# every mean is the bits of numpy's mean over the run's whole series.  A
# run computes in its current block only; a trace is a copy of each
# finished block into whole-run arrays, and the invariant scan checks each
# block as it finishes (both for R = 1 only).
# Finite runs at R > 1 without placeholders start with a burn-in prologue
# that only advances W (see _loop); a placeholder warmup is all prologue.

_CHUNK = 256  # run-slots per block; slots per state draw in the burn-in prologue
_STACKED_MIN_R = 4  # fewest finite runs that _run_batched puts through one _loop call


def _queue_path(path, mu, x):
    """Fill rows 1.. of ``path`` by u(t+1) = max(u(t) - mu(t), 0) + x(t) from row 0.

    One cumsum down the interleaved steps [-mu(0), x(0), -mu(1), x(1),
    ...] started from row 0 adds in slot order, and u + (-m) == u - m
    exactly, so the rows are the recursion's bits up to a queue's first
    clamp at zero.  From there on that queue is finished by the scalar
    recursion over Python floats, which round as the array operations of
    the queue law do.
    """
    n, r = mu.shape
    steps = np.empty((2 * n, r))
    np.negative(mu, out=steps[0::2])
    steps[1::2] = x
    steps[0] += path[0]
    np.cumsum(steps, axis=0, out=steps)
    path[1:] = steps[1::2]
    low = steps[0::2] < 0.0
    for j in np.flatnonzero(low.any(axis=0)).tolist():
        s = int(low[:, j].argmax())
        u, col = path[s, j].item(), []
        for m, a in zip(mu[s:, j].tolist(), x[s:, j].tolist()):
            u -= m
            if u < 0.0:
                u = 0.0
            u += a
            col.append(u)
        path[s + 1:, j] = col


def _chained_sum(total, rows):
    """total + rows[0] + rows[1] + ..., added in slot order like a per-slot +=.

    Accumulates in place, so ``rows`` is overwritten.
    """
    if len(rows) == 0:
        return total
    rows[0] += total
    np.cumsum(rows, axis=0, out=rows)
    return rows[-1].copy()


_PW_LEAF = 128  # numpy's pairwise-sum block: a node of at most this many values is a leaf


def _pairwise_tree(n):
    """numpy's pairwise sum of n values as a generator over its leaves.

    Yields each leaf's size, in order, and is sent the leaf's sum back; it
    returns the total.  A node of at most _PW_LEAF values is a leaf; a
    larger one splits at n2 = n//2 - (n//2) % 8 and adds the two halves'
    sums.  The state is the path to the current leaf, O(log n).
    """
    if n <= _PW_LEAF:
        return (yield n)
    n2 = n // 2 - (n // 2) % 8
    return (yield from _pairwise_tree(n2)) + (yield from _pairwise_tree(n - n2))


class _WindowMean:
    """Per-run X.mean(axis=0) of n values, or n rows of r, for R runs fed in blocks.

    Blocks have shape (m, R) for lines (``r`` None) or (m, R, r).  The
    result has the bits of numpy's mean over each run's own C-contiguous
    series.  numpy reduces axis 0 of an (n, r) array with r >= 2 row by
    row, so those sums are chained in slot order (_chained_sum, which
    overwrites the rows it is fed).  A 1-D line or an (n, 1) column is
    reduced as one line, to 0.0 + the pairwise sum of _pairwise_tree; the
    R lines share the tree, and each leaf is summed by np.add.reduce along
    the contiguous axis of an (R, leaf) array as it fills.  At most one
    leaf is held across a block edge.
    """

    def __init__(self, n, R, r=None):
        self.n, self.R, self.r = n, R, r
        self._rows = r is not None and r >= 2
        if self._rows:
            self._sum = np.zeros((R, r))
            return
        self._tree = _pairwise_tree(n)
        self._need = next(self._tree)
        self._leaf, self._held = np.empty((R, min(n, _PW_LEAF))), 0

    def add(self, rows):
        if self._rows:
            self._sum = _chained_sum(self._sum, rows)
            return
        x = rows.reshape(len(rows), self.R)
        while len(x):
            need = self._need - self._held
            if self._held == 0 and len(x) >= need:
                leaf, x = np.ascontiguousarray(x[:need].T), x[need:]
            else:  # gather a leaf that spans a block edge
                take = min(need, len(x))
                self._leaf[:, self._held:self._held + take] = x[:take].T
                self._held += take
                x = x[take:]
                if take < need:
                    return
                leaf, self._held = np.ascontiguousarray(self._leaf[:, :self._need]), 0
            try:
                self._need = self._tree.send(np.add.reduce(leaf, axis=1))
            except StopIteration as done:
                self._sum = 0.0 + done.value

    def mean(self):
        """(R,) for lines, else (R, r); NaN for n = 0, an empty window nobody reads."""
        if self.n == 0:
            return np.full((self.R,) if self.r is None else (self.R, self.r), np.nan)
        m = self._sum / self.n
        return m[:, None] if self.r == 1 else m


def _stacked_step(tab):
    """The greedy slot of R runs at once over the padded tables.

    Returns ``step(i, vc, u, out)``: run k, in state i[k] with backlog
    u[k] and V * cost row vc[k], takes the first maximum of the score
    sma_pad[i[k]] @ u[k] - vc[k] (padded actions score -inf) and writes
    max(u - services, 0) + arrivals into ``out`` (which may be ``u``); it
    returns the chosen actions.  The scores are one stacked matmul, which
    gives each run the bits of _finite_argmin's gemv, and the gathers use
    ``take`` (on the (S A, r) flattening for the chosen actions' rows),
    which copies the same values as fancy indexing with less dispatch.
    """
    S, A, r = tab.arr_pad.shape
    sma, zero = tab.sma_pad, np.zeros(())
    arr, svc = tab.arr_pad.reshape(S * A, r), tab.svc_pad.reshape(S * A, r)

    def step(i, vc, u, out):
        sc = np.matmul(sma.take(i, axis=0), u[:, :, None])[:, :, 0]
        sc -= vc
        k = sc.argmax(axis=1)
        f = i * A + k  # row of (state, chosen action)
        np.subtract(u, svc.take(f, axis=0), out=out)
        np.maximum(out, zero, out=out)
        out += arr.take(f, axis=0)
        return k

    return step


class _Run(_Record):
    """What _loop returns for one run.

    The mean cost, the arrival and drop sums, the sandwich count, the
    deviations and the means ``avg_u``/``avg_w`` cover the slots from the
    burn-in on; ``final_u``/``final_w`` are the backlogs after the last
    slot.  ``trace`` is None unless _loop was asked for ``paths``; without
    it ``dev`` (8 bytes per slot, None without a reference point) is the
    only per-slot series.
    """

    avg_cost: float
    arr_sum: np.ndarray
    drop_sum: np.ndarray
    bad: "int | None"
    dev: "np.ndarray | None"
    avg_u: np.ndarray
    avg_w: np.ndarray
    final_u: np.ndarray
    final_w: np.ndarray
    trace: "Trace | None" = None


def _loop(spec, V, rngs, slots, w0, burn, wl=None, ref=None, paths=False, check=False):
    """R greedy runs of ``slots`` slots; returns one _Run per run.

    Run k has V[k], starts from W(0) = w0[k] ((R, r)) and draws its states
    from rngs[k].  The mean cost, the arrival and drop sums, the means and
    the deviations cover the slots from ``burn`` on.  With placeholders
    ``wl`` ((R, r)), U starts empty and admits max(a - max(wl - W, 0), 0)
    of each arrival a, and ``bad`` counts the rows x queues of U outside
    the sandwich around W.  Without them U is W (the same array), nothing
    is dropped and nothing is counted: the drop sum is zero and ``bad``
    None.  The deviations are the Euclidean distances of W(t) from the
    reference point ``ref`` ((R, r)), 8 bytes per slot, None without one.

    Each block of rows = max(1, _CHUNK // R) slots draws every run's states
    with sample_states into one state buffer, column by column (a generator
    is consumed exactly like one draw of ``slots`` states), runs the
    decisions and the W queue law slot by slot (see the core-loop comment
    for the code each R takes), then derives the block's costs, admissions,
    drops, U (see _queue_path), violations, deviations and window sums from
    the W rows and actions with array operations; _WindowMean turns the
    sums into numpy's means.  W and U live in (rows + 1, R, r) buffers
    whose row 0 carries the last row of the block before, so the runs keep
    O(_CHUNK r) of them plus the deviations, whatever their length and R.
    Finite runs at R > 1 without placeholders only advance W through the
    slots before ``burn``, in a prologue that draws _CHUNK slots per run at
    a time; ``burn`` = ``slots`` leaves an empty window, whose means are
    NaN, for callers that read only the final backlogs.  ``check`` and
    ``paths`` need R = 1.  With ``check`` each block goes through
    _invariant_scan, which raises at its first offending slot.  With
    ``paths`` each block is also copied out into the run's Trace: the
    states, actions, costs and drops per slot (None without placeholders)
    and the slot-start U and W rows (W None without placeholders).
    """
    R, r = len(rngs), spec.r
    assert R == 1 or not (paths or check), "traces and invariant scans are single-run"
    rows = max(1, _CHUNK // R)
    W = np.empty((rows + 1, R, r))  # row j is the start of the block's slot j
    W[0] = w0
    costs = np.empty((rows, R))
    arr_sum, drop_sum = np.zeros((R, r)), np.zeros((R, r))
    window = slots - burn
    cost_mean, w_mean, u_mean = _WindowMean(window, R), _WindowMean(window, R, r), None
    if wl is None:
        U, bad = W, None
    else:
        U = np.empty_like(W)
        U[0] = 0.0
        u_mean = _WindowMean(window, R, r)
        bad = _sandwich_bad(U[:1], W[:1], wl, spec.delta_max).sum(axis=(0, 2))
    dev = None if ref is None else np.empty((R, window))
    finite = spec.is_finite
    prologue = finite and R > 1 and wl is None and burn > 0
    idx = np.empty((_CHUNK if prologue else rows, R), dtype=np.int64)  # the states

    def draw(n):  # each run's next n states, column by column
        for k, g in enumerate(rngs):
            idx[:n, k] = sample_states(spec, g, n)
        return idx[:n]

    if finite:
        tab = tables(spec)
        acts = np.empty((rows, R), dtype=np.int64)
        if R == 1:
            sma, arr, svc = tab.sma, tab.arr_rows, tab.svc_rows
            vcost = [V[0] * c for c in tab.cost]
        else:  # V * cost once per distinct V; run k finds state i's row at i + voff[k]
            step = _stacked_step(tab)
            Vs, vk = np.unique(np.array(V, dtype=float), return_inverse=True)
            vcost = np.empty((len(Vs),) + tab.cost_pad.shape)
            for v, c in zip(Vs, vcost):  # one product per V: a broadcast one buffers 3x its size
                np.multiply(v, tab.cost_pad, out=c)
            vcost, voff = vcost.reshape(-1, vcost.shape[2]), vk * spec.n_states
    else:
        fams = [st.actions for st in spec.states]
        acts = np.empty((rows, R))
        a_buf, mu_buf = np.empty((rows, R, r)), np.empty((rows, R, r))
    trace = None
    if paths:  # each finished block is copied into it
        t_w, t_drops = (None, None) if wl is None else (np.empty((slots, r)), np.empty(slots))
        trace = Trace(np.empty(slots, dtype=np.int64), np.empty(slots, dtype=acts.dtype),
                      np.empty(slots), np.empty((slots, r)), t_w, t_drops)
    zero = np.zeros(())  # an array zero spares np.maximum a scalar conversion
    if prologue:  # nothing reads the slots before burn but W: advance it in place
        w = W[0]
        for t0 in range(0, burn, _CHUNK):
            for i in draw(min(_CHUNK, burn - t0)):
                step(i, vcost.take(i + voff, axis=0), w, w)
    for t0 in range(burn if prologue else 0, slots, rows):
        t1 = min(t0 + rows, slots)
        n = t1 - t0
        Wb, Ub, ks, cb = W[:n + 1], U[:n + 1], acts[:n], costs[:n]
        states = draw(n)
        if finite:
            if R == 1:
                k_list, w = [], Wb[0, 0]
                for row, i in zip(Wb[1:, 0], states[:, 0].tolist()):
                    k = _finite_argmin(sma[i], vcost[i], w)
                    k_list.append(k)
                    np.subtract(w, svc[i][k], out=row)
                    np.maximum(row, zero, out=row)
                    row += arr[i][k]
                    w = row
                ks[:, 0] = k_list
            else:
                for t, i in enumerate(states):
                    ks[t] = step(i, vcost.take(i + voff, axis=0), Wb[t], Wb[t + 1])
            cb[:] = tab.cost_pad[states, ks]
            a = tab.arr_pad[states, ks]
            mu = tab.svc_pad[states, ks] if wl is not None else None
        else:
            a, mu = a_buf[:n], mu_buf[:n]
            if R == 1:
                w, wf, i1, out = Wb[0, 0], Wb[0, 0].tolist(), states[:, 0].tolist(), []
                for row, i in zip(Wb[1:, 0], i1):
                    fam = fams[i]
                    x = float(fam.dual_argmin(V[0], w))
                    aj, muj = fam.arrivals(x).tolist(), fam.services(x).tolist()
                    wf = [max(u - m, 0.0) + ai for u, m, ai in zip(wf, muj, aj)]
                    row[:] = wf
                    w = row
                    out.append((x, aj, muj))
                ks[:, 0], a[:, 0], mu[:, 0] = zip(*out)
                cb[:, 0] = [fams[i].cost(x) for i, x in zip(i1, ks[:, 0].tolist())]
            else:
                for t, (i_t, w_t, x_t, c_t, a_t, mu_t) in enumerate(
                        zip(states.tolist(), Wb, ks, cb, a, mu)):
                    for k, (i, w) in enumerate(zip(i_t, w_t)):
                        fam = fams[i]
                        x = float(fam.dual_argmin(V[k], w))
                        x_t[k] = x
                        c_t[k] = fam.cost(x)
                        a_t[k], mu_t[k] = fam.arrivals(x), fam.services(x)
                    row = Wb[t + 1]
                    np.subtract(w_t, mu_t, out=row)
                    np.maximum(row, zero, out=row)
                    row += a_t
        lo = max(burn, t0) - t0  # the block's first post burn-in row
        cost_mean.add(cb[lo:])
        if wl is not None:
            admit = np.maximum(a - np.maximum(wl - Wb[:n], 0.0), 0.0)
            dropped = a - admit
            if paths:
                trace.dropped[t0:t1] = dropped[:, 0].sum(axis=1)
            drop_sum = _chained_sum(drop_sum, dropped[lo:])
            _queue_path(Ub.reshape(n + 1, R * r), mu.reshape(n, R * r), admit.reshape(n, R * r))
            bad += _sandwich_bad(Ub[1:], Wb[1:], wl, spec.delta_max).sum(axis=(0, 2))
        if check:
            _invariant_scan(spec, states[:, 0], Ub[:, 0], None if wl is None else Wb[:, 0],
                            None if wl is None else wl[0], t0)
        arr_sum = _chained_sum(arr_sum, a[lo:])
        if ref is not None and lo < n:
            dev[:, t0 + lo - burn:t1 - burn] = np.linalg.norm(Wb[lo:n] - ref, axis=2).T
        if paths:
            trace.states[t0:t1], trace.actions[t0:t1] = states[:, 0], ks[:, 0]
            trace.costs[t0:t1], trace.u[t0:t1] = cb[:, 0], Ub[:n, 0]
            if wl is not None:
                trace.w[t0:t1] = Wb[:n, 0]
        # last, as the means may overwrite the rows they add; row n carries
        # on into the next block
        w_mean.add(Wb[lo:n])
        if wl is not None:
            u_mean.add(Ub[lo:n])
        W[0] = Wb[n]
        if wl is not None:
            U[0] = Ub[n]
    avg_cost, avg_w = cost_mean.mean(), w_mean.mean()
    avg_u = avg_w if wl is None else u_mean.mean()
    return [_Run(float(avg_cost[k]), arr_sum[k], drop_sum[k], None if bad is None else int(bad[k]),
                 None if dev is None else dev[k], avg_u[k], avg_w[k], U[0, k].copy(),
                 W[0, k].copy(), trace) for k in range(R)]


# -- run ---------------------------------------------------------------------


def _resolve_placeholders(handle: ScenarioHandle, config: RunConfig, u_star) -> np.ndarray:
    if config.placeholders is not None:
        return _levels("placeholders", config.placeholders, handle.spec.r)
    if config.algorithm == "fqla-ideal":
        if u_star is None:
            warnings.warn(f"no U*_V available for {handle.name!r}; "
                          "falling back to numeric multiplier search")
            u_star = find_optimal_multiplier(handle, config.V).u_star
        return fqla_placeholder_ideal(u_star, config.V,
                                      "polyhedral" if handle.spec.is_finite else "smooth")
    if config.algorithm == "fqla-general":
        return fqla_general_estimate(handle, config.V, T=config.general_T, K=config.general_K,
                                     rng=substream(config.seed, config.stream, 1)).placeholders
    return bisection_placeholder(handle, config.V, T1=config.bisect_T1, guess=config.bisect_guess,
                                 rng=substream(config.seed, config.stream, 2)).placeholders


def default_burn_in(V: float, slots: int) -> int:
    """Slots dropped from a run's statistics when no burn-in is given: min(100 V, slots // 10)."""
    return int(min(100 * V, slots // 10))


class _Setup(_Record):
    """A validated config with what _loop needs resolved: W(0), the placeholders
    (None under qla) and the deviation reference (None without one)."""

    config: RunConfig
    handle: ScenarioHandle
    slots: int
    burn_in: int
    w0: np.ndarray
    wl: "np.ndarray | None"
    u_star: "np.ndarray | None"


# RunConfig's algorithm-specific fields and the algorithms that read them
_READERS = {"placeholders": ALGORITHMS[1:], "initial_backlog": ("qla",),
            "general_T": ("fqla-general",), "general_K": ("fqla-general",),
            "bisect_T1": ("fqla-bisect",), "bisect_guess": ("fqla-bisect",)}


def _check_reads(config: RunConfig) -> None:
    """Reject a field of _READERS set away from its default where it goes unread (see RunConfig)."""
    for name, readers in _READERS.items():
        value, default = getattr(config, name), getattr(type(config), name)  # the class's default
        if value is None if default is None else value == default:
            continue
        if config.algorithm not in readers:
            raise ValidationError(name, f"applies to {', '.join(readers)} only, not {config.algorithm}")
        if name != "placeholders" and config.placeholders is not None:
            raise ValidationError(name, f"applies to {config.algorithm} only without placeholders")


def _setup(config: RunConfig) -> _Setup:
    """Check a config and resolve it; raises what run() raises for a bad config."""
    handle = as_handle(config.scenario)
    spec = handle.spec
    if config.algorithm not in ALGORITHMS:
        raise ValidationError("algorithm", f"unknown algorithm {config.algorithm!r}; choose from {ALGORITHMS}")
    _check_reads(config)
    slots = _integer("slots", config.slots, 1)
    _check_vcost(spec, config.V)
    _integer("seed", config.seed, 0)
    _integer("stream", config.stream, 0)
    if config.general_T is not None:
        _integer("general_T", config.general_T, 1)
    _integer("general_K", config.general_K, 1)
    if config.bisect_T1 is not None:
        _integer("bisect_T1", config.bisect_T1, 2)
    u0 = np.zeros(spec.r)
    if config.initial_backlog is not None:
        u0 = _levels("initial_backlog", config.initial_backlog, spec.r)
    burn_in = (default_burn_in(config.V, slots) if config.burn_in is None
               else _integer("burn_in", config.burn_in, 0))
    if burn_in >= slots:
        raise ValidationError("burn_in", f"must lie in [0, slots={slots}), got {burn_in}")
    u_star = None if handle.u_star is None else np.asarray(handle.u_star(config.V), dtype=float)
    if config.deviation_reference is not None:
        u_star = _levels("deviation_reference", config.deviation_reference, spec.r)
    wl = _resolve_placeholders(handle, config, u_star) if config.algorithm != "qla" else None
    return _Setup(config, handle, slots, burn_in, u0 if wl is None else wl, wl, u_star)


def _report(s: _Setup, lp: _Run) -> SimReport:
    config, handle = s.config, s.handle
    # Drop accounting matches the averages: both sides of the fraction
    # count post burn-in slots only, so the startup climb from W(0) to
    # the steady band does not leak into a long-run statistic.
    exo = handle.exogenous if handle.exogenous is not None else tuple(range(handle.spec.r))
    offered = float(lp.arr_sum[list(exo)].sum())
    drops_total = float(lp.drop_sum.sum())
    drop_fraction = drops_total / offered if offered > 0 else 0.0

    report = SimReport(
        scenario=handle.name,
        algorithm=config.algorithm,
        V=config.V,
        seed=config.seed,
        stream=config.stream,
        slots=s.slots,
        burn_in=s.burn_in,
        avg_cost=lp.avg_cost,
        avg_backlog=lp.avg_u,
        avg_backlog_total=float(lp.avg_u.sum()),
        final_backlog=lp.final_u,
        drops=lp.drop_sum,
        drop_fraction=drop_fraction,
        offered=offered,
    )
    if s.wl is not None:
        report.avg_virtual_backlog = lp.avg_w
        report.avg_virtual_backlog_total = float(lp.avg_w.sum())
        report.final_virtual = lp.final_w
        report.placeholders = s.wl
        report.sandwich_violations = lp.bad

    if s.u_star is not None:  # attraction acts on the virtual backlog (U under qla)
        report.deviation_reference = s.u_star
        report.deviations = lp.dev

    report.trace = lp.trace
    return report


def _stacked(arrays):
    return None if arrays[0] is None else np.array(arrays)


def run(config: RunConfig) -> SimReport:
    """Simulate one run and report averages plus the deviation record."""
    s = _setup(config)
    lp = _loop(s.handle.spec, [config.V], [substream(config.seed, config.stream)], s.slots,
               s.w0[None], s.burn_in, _stacked([s.wl]), _stacked([s.u_star]),
               paths=config.record_trace, check=config.check_invariants)[0]
    return _report(s, lp)


def run_many(configs: Sequence[RunConfig]) -> list[SimReport]:
    """Simulate many runs, batched; one report per config, in order.

    Configs that share the spec, the algorithm kind (with placeholders or
    not), the slots and the burn-in advance together in one _loop call
    (on finite tables, from _STACKED_MIN_R configs on).
    Every report equals run()'s for its config field for field, except that
    the per-slot series ``deviations`` and ``trace`` are None, so the
    memory of R runs does not grow with their length.  Configs asking for
    ``record_trace`` or ``check_invariants`` are rejected with a
    ValueError; a bad config raises what run() raises.
    """
    for c in configs:
        if c.record_trace or c.check_invariants:
            raise ValueError("run_many keeps no trace and checks no invariants; "
                             "use run() for record_trace or check_invariants")
    return _run_batched([_setup(c) for c in configs])


def _run_batched(setups: Sequence[_Setup]) -> list[SimReport]:
    """run_many's kernel calls, on configs _setup has already checked.

    A finite group of fewer than _STACKED_MIN_R configs runs one R = 1
    call per config, where _stacked_step would be slower (core-loop
    comment).
    """
    groups: dict[tuple, list[int]] = {}
    for j, s in enumerate(setups):
        key = (s.handle.spec, s.wl is None, s.slots, s.burn_in)
        groups.setdefault(key, []).append(j)
    calls = []
    for (spec, _, slots, burn_in), js in groups.items():
        if spec.is_finite and len(js) < _STACKED_MIN_R:
            calls += [(spec, slots, burn_in, [j]) for j in js]
        else:
            calls.append((spec, slots, burn_in, js))
    reports: list = [None] * len(setups)
    for spec, slots, burn_in, js in calls:
        batch = [setups[j] for j in js]
        runs = _loop(spec, [s.config.V for s in batch],
                     [substream(s.config.seed, s.config.stream) for s in batch], slots,
                     np.array([s.w0 for s in batch]), burn_in, _stacked([s.wl for s in batch]))
        for j, s, lp in zip(js, batch, runs):
            reports[j] = _report(s, lp)
    return reports


def _sandwich_bad(U, W, wl, delta_max, tol=_TOL):
    """Rows x queues outside max(W - wl, 0) <= U <= max(W - wl, 0) + delta_max, up to tol."""
    floor = np.maximum(W - wl, 0.0)
    return (U < floor - tol) | (U > floor + delta_max + tol)


def _invariant_scan(spec, idx, U, W, wl, t0=0):
    """Raise on the first slot of a block breaking a per-slot contract.

    ``idx`` holds the states of slots t0, t0 + 1, ... and U and W (None
    without placeholders) the len(idx) + 1 path rows from t0 on, so row 0
    is the row before the block: the run's start for t0 = 0, else the
    last row of the block before, which that block's scan has checked.
    The checks run in the order U negative, U jump, W negative, W jump,
    sandwich; scanning the blocks of a path in turn raises what one scan
    of the whole path raises when only one block breaks a contract.
    """
    B = spec.B

    def fail(message, j, t):  # slot t0 + j, reported with row t
        raise SimInvariantError(message, t0 + j, int(idx[j]), U[t], None if W is None else W[t])

    def first_bad(mask):
        return int(np.flatnonzero(mask)[0])

    for name, X in (("backlog", U), ("virtual backlog", W)):
        if X is None:
            continue
        neg = (X < -_TOL).any(axis=1)
        if neg.any():
            t = first_bad(neg)  # row t was produced by slot t - 1
            fail(f"{name} went negative", max(t - 1, 0), t)
        step = np.linalg.norm(np.diff(X, axis=0), axis=1)
        jump = step > B + _TOL
        if jump.any():
            t = first_bad(jump)
            fail(f"{name} moved {step[t]:.6g} > B={B:.6g} in one slot", t, t)
    if W is not None:
        sandwich = _sandwich_bad(U, W, wl, spec.delta_max).any(axis=1)
        if sandwich.any():
            t = first_bad(sandwich)
            fail("sandwich bound violated", max(t - 1, 0), t)


# -- deviation statistics ----------------------------------------------------


def curve_from_deviations(dev: np.ndarray, D: float) -> DeviationCurve:
    """Exact tail curve of a deviation sample, integer m until p hits 0."""
    dev = np.asarray(dev, dtype=float)
    if dev.size == 0:
        raise ValueError("empty deviation sample")
    if D < 0:
        raise ValueError(f"D must be nonnegative, got {D!r}")
    srt = np.sort(dev)
    n = srt.size
    m_max = int(max(0.0, math.ceil(float(srt[-1]) - D)))
    ms = np.arange(m_max + 1)
    p = 1.0 - np.searchsorted(srt, D + ms, side="right") / n
    return DeviationCurve(float(D), ms, p, n)


def deviation_statistics(report: SimReport, D: float) -> DeviationCurve:
    """Empirical tail curve m -> fraction of slots with deviation > D + m.

    Exact over the post-burn-in window, for integer m from 0 until the
    curve reaches zero.
    """
    if report.deviations is None:
        raise ValueError("run recorded no deviations (no reference point available)")
    return curve_from_deviations(report.deviations, D)


def fit_tail(curve: DeviationCurve) -> TailFit:
    """Fit ln p = ln c - beta m over bins with enough samples.

    Only bins holding at least 30 tail samples qualify; fewer than 4
    qualifying bins raises :class:`TailFitError` (insufficient tail mass).
    """
    min_samples = 30
    counts = curve.p * curve.n_samples
    mask = (curve.p > 0) & (counts >= min_samples)
    if int(mask.sum()) < 4:
        raise TailFitError("insufficient tail mass: need at least 4 bins with "
                           f">= {min_samples} samples, have {int(mask.sum())}")
    x = curve.m[mask].astype(float)
    y = np.log(curve.p[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = intercept + slope * x
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return TailFit(math.exp(intercept), -float(slope), r2,
                   int(x[0]), int(x[-1]), int(mask.sum()))


def absorption_check(scenario, V: float, report: SimReport) -> AbsorptionReport:
    """Check the single-queue absorbing interval on a recorded path.

    The interval is [min_i U*_si - B, max_i U*_si + B] over the per-state
    dual optima; the verdict is whether the path entered it and stayed.
    The path is the trace's slot-start backlogs followed by the final one.
    """
    if report.trace is None:
        raise ValueError("absorption check needs a recorded trace (record_trace=True)")
    return _path_absorption(scenario, V, np.vstack([report.trace.u, report.final_backlog]))


def _path_absorption(scenario, V: float, u) -> AbsorptionReport:
    """absorption_check on the backlog rows ``u`` ((n, 1)), each counted once."""
    spec = as_handle(scenario).spec
    if spec.r != 1:
        raise ValueError("absorbing intervals are defined for single-queue scenarios")
    optima = [per_state_optimum(spec, V, i) for i in range(spec.n_states)]
    lo = min(optima) - spec.B
    hi = max(optima) + spec.B
    path = u[:, 0]
    inside = (path >= lo - _TOL) & (path <= hi + _TOL)
    entered = np.flatnonzero(inside)
    if entered.size == 0:
        return AbsorptionReport((lo, hi), optima, None, 0, False)
    t0 = int(entered[0])
    violations = int((~inside[t0:]).sum())
    return AbsorptionReport((lo, hi), optima, t0, violations, violations == 0)


# -- CSV output --------------------------------------------------------------

REPORT_CSV_NOTE = "all floats formatted with 12 significant digits"


def _fmt(x) -> str:
    return "%.12g" % float(x)


_CSV_BLOCK = 4096  # trace rows formatted and written at a time


def write_trace_csv(report: SimReport, path: str) -> None:
    """Write the per-slot trace: slot,state,cost,U_*,W_*,dropped_this_slot.

    W columns are left empty for plain greedy runs.  Each row is one
    format of a template (``%d`` for slot and state, ``%.12g`` for every
    float) over the ``tolist`` columns of a block of _CSV_BLOCK rows, so
    memory stays bounded.
    """
    tr = report.trace
    if tr is None:
        raise ValueError("report holds no trace (record_trace=True required)")
    n, r = tr.u.shape
    cols = (["slot", "state", "cost"] + [f"U_{j + 1}" for j in range(r)]
            + [f"W_{j + 1}" for j in range(r)] + ["dropped_this_slot"])
    row = ("%d,%d,%.12g" + ",%.12g" * r + ("," * r if tr.w is None else ",%.12g" * r)
           + (",0\n" if tr.dropped is None else ",%.12g\n"))
    floats = [tr.costs, *tr.u.T, *(() if tr.w is None else tr.w.T),
              *(() if tr.dropped is None else (tr.dropped,))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for s in range(0, n, _CSV_BLOCK):
            e = min(s + _CSV_BLOCK, n)
            block = [range(s, e), tr.states[s:e].tolist()] + [f[s:e].tolist() for f in floats]
            fh.write("".join(row % fields for fields in zip(*block)))


def report_csv_header(r: int) -> list[str]:
    return (["scenario", "algorithm", "V", "seed", "stream", "slots", "burn_in",
             "avg_cost", "avg_backlog_total"]
            + [f"avg_backlog_{j + 1}" for j in range(r)]
            + ["avg_virtual_total"] + [f"avg_virtual_{j + 1}" for j in range(r)]
            + ["drop_fraction", "drops", "offered", "sandwich_violations"])


def report_csv_row(report: SimReport) -> list[str]:
    r = report.avg_backlog.shape[0]
    row = [report.scenario, report.algorithm, _fmt(report.V), str(report.seed),
           str(report.stream), str(report.slots), str(report.burn_in),
           _fmt(report.avg_cost), _fmt(report.avg_backlog_total)]
    row += [_fmt(v) for v in report.avg_backlog]
    if report.avg_virtual_backlog is not None:
        row.append(_fmt(report.avg_virtual_backlog_total))
        row += [_fmt(v) for v in report.avg_virtual_backlog]
    else:
        row += [""] * (r + 1)
    row += [_fmt(report.drop_fraction), _fmt(float(report.drops.sum())),
            _fmt(report.offered),
            "" if report.sandwich_violations is None else str(report.sandwich_violations)]
    return row


def write_report_csv(reports: Sequence[SimReport], path: str) -> None:
    """Write one row of scalars per run."""
    if not reports:
        raise ValueError("no reports to write")
    r = reports[0].avg_backlog.shape[0]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(report_csv_header(r)) + "\n")
        for rep in reports:
            fh.write(",".join(report_csv_row(rep)) + "\n")
