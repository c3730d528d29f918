import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from lyapnet import scenarios, sim
from lyapnet.model import ValidationError, tables
from lyapnet.sim import (
    RunConfig,
    SimInvariantError,
    TailFitError,
    absorption_check,
    curve_from_deviations,
    default_burn_in,
    deviation_statistics,
    fit_tail,
    report_csv_header,
    report_csv_row,
    run,
    write_report_csv,
    write_trace_csv,
    _invariant_scan,
)


def _report_equal(a, b):
    for name in ("avg_cost", "avg_backlog_total", "drop_fraction", "offered",
                 "burn_in", "sandwich_violations"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("avg_backlog", "final_backlog", "drops", "deviations",
                 "avg_virtual_backlog", "final_virtual", "placeholders"):
        va, vb = getattr(a, name), getattr(b, name)
        if va is None:
            assert vb is None, name
        else:
            np.testing.assert_array_equal(va, vb, err_msg=name)


# -- determinism -------------------------------------------------------------


def test_identical_configs_reproduce_bit_for_bit(five):
    cfg = dict(scenario=five, V=50.0, algorithm="fqla-ideal", slots=50_000,
               seed=9, record_trace=True)
    a = run(RunConfig(**cfg))
    b = run(RunConfig(**cfg))
    _report_equal(a, b)
    np.testing.assert_array_equal(a.trace.u, b.trace.u)
    np.testing.assert_array_equal(a.trace.w, b.trace.w)
    np.testing.assert_array_equal(a.trace.states, b.trace.states)
    np.testing.assert_array_equal(a.trace.dropped, b.trace.dropped)


def test_streams_are_independent(five):
    a = run(RunConfig(scenario=five, V=50.0, slots=5_000, seed=9, stream=0))
    b = run(RunConfig(scenario=five, V=50.0, slots=5_000, seed=9, stream=1))
    assert a.avg_cost != b.avg_cost


def _traced_peak(cfg):
    """tracemalloc peak of one run, after a warm-up run and a full collection."""
    run(cfg)
    gc.collect()  # otherwise the peak moves with the cyclic collector's timing
    tracemalloc.start()
    try:
        run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,check", [
    pytest.param("five-queue-chain", False, id="five-queue-chain"),
    pytest.param("single-queue-continuous", False, id="single-queue-continuous"),
    pytest.param("five-queue-chain", True, id="five-queue-chain-check_invariants"),
])
def test_run_memory_grows_only_by_the_kept_series(name, check):
    """Without a trace a run keeps only one 8-byte array, the deviations:
    no costs, and no U and W paths, whatever r is, also when the
    invariants are checked.  At most 10 bytes per extra slot (about 14.5
    with a second, per-coordinate deviation array, 29.5 and 56 before the
    means were streamed, 232 with the checks before they ran per block)."""
    handle = scenarios.by_name(name)
    assert handle.u_star is not None  # so the run keeps its deviation array
    peaks = [_traced_peak(RunConfig(scenario=handle, V=100.0, algorithm="fqla-ideal",
                                    slots=slots, seed=3, check_invariants=check))
             for slots in (20_000, 40_000)]
    assert (peaks[1] - peaks[0]) / 20_000 <= 10.0


def _traced_peak_many(configs):
    """tracemalloc peak of one run_many call, after a short warm-up call and a full collection."""
    sim.run_many([dataclasses.replace(c, slots=1_000) for c in configs])
    gc.collect()
    tracemalloc.start()
    try:
        sim.run_many(configs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_many_memory_does_not_grow_with_run_length(contq):
    """run_many keeps no per-slot series: 4 runs of 10k slots peak where 4
    runs of 5k do, within 1 byte per extra slot (their deviation arrays
    alone would add 4 x 8)."""
    peaks = [_traced_peak_many([RunConfig(scenario=contq, V=V, algorithm="fqla-ideal",
                                          slots=slots, seed=seed)
                                for V in (100.0, 1000.0) for seed in (3, 4)])
             for slots in (5_000, 10_000)]
    assert (peaks[1] - peaks[0]) / 5_000 <= 1.0


def test_run_many_stacked_qla_group_matches_run(five):
    """Six qla configs at three V form one stacked group: its burn-in
    prologue crosses two _CHUNK edges and reads V * cost from a stack of
    three, then the blocks run on.  Each report equals run()'s."""
    chunk = sim._CHUNK
    configs = [RunConfig(scenario=five, V=V, slots=3 * chunk + 40, burn_in=2 * chunk + 17,
                         seed=seed, stream=seed % 2)
               for V in (20.0, 50.0, 120.0) for seed in (5, 6)]
    assert len(configs) >= sim._STACKED_MIN_R
    for got, cfg in zip(sim.run_many(configs), configs):
        _report_equal(got, dataclasses.replace(run(cfg), deviations=None))


@pytest.mark.parametrize("kw", [{"record_trace": True}, {"check_invariants": True}])
def test_run_many_rejects_per_slot_requests(five, kw):
    with pytest.raises(ValueError, match="use run"):
        sim.run_many([RunConfig(scenario=five, V=50.0, slots=100),
                      RunConfig(scenario=five, V=50.0, slots=100, **kw)])


def test_run_many_keeps_config_order_across_groups(five, two):
    configs = [RunConfig(scenario=five, V=50.0, slots=600, seed=1),
               RunConfig(scenario=two, V=20.0, slots=600, seed=2, algorithm="fqla-ideal"),
               RunConfig(scenario=five, V=30.0, slots=700, seed=3),
               RunConfig(scenario=five, V=40.0, slots=600, seed=4, algorithm="fqla-ideal")]
    for got, cfg in zip(sim.run_many(configs), configs):
        want = run(cfg)
        assert (got.scenario, got.algorithm, got.V, got.seed, got.slots) == (
            want.scenario, want.algorithm, want.V, want.seed, want.slots)
        assert got.deviations is None and want.deviations is not None
        _report_equal(got, dataclasses.replace(want, deviations=None))


# -- config handling ---------------------------------------------------------


def test_burn_in_default_rule(five):
    rep = run(RunConfig(scenario=five, V=50.0, slots=100_000, seed=0))
    assert rep.burn_in == 5_000 == default_burn_in(50.0, 100_000)  # min(100 V, slots / 10)
    rep = run(RunConfig(scenario=five, V=50.0, slots=20_000, seed=0))
    assert rep.burn_in == 2_000
    rep = run(RunConfig(scenario=five, V=50.0, slots=20_000, seed=0, burn_in=123))
    assert rep.burn_in == 123


# each id reads "field message", without the colon the error puts after the field
@pytest.mark.parametrize("kw,msg", [
    (dict(slots=0), "slots"),
    (dict(V=0.0), "V: must be positive"),
    (dict(burn_in=5_000), "burn_in"),
    (dict(algorithm="greedy"), "unknown algorithm"),
    (dict(V=float("inf")), "V: must be positive and finite"),
    (dict(V=float("nan")), "V: must be positive and finite"),
    (dict(initial_backlog=np.array([1.0, 2.0, 3.0])), r"initial_backlog: must have shape \(5,\)"),
    (dict(initial_backlog=np.array([1.0, 1.0, -1.0, 1.0, 1.0])), "initial_backlog: must be"),
    (dict(initial_backlog=np.array([1.0, 1.0, np.inf, 1.0, 1.0])), "initial_backlog: must be"),
    (dict(algorithm="fqla-ideal", placeholders=np.array([1.0, np.nan, 1.0, 1.0, 1.0])),
     "placeholders: must be 5 finite, nonnegative levels"),
    (dict(algorithm="fqla-ideal", placeholders=np.array([1.0, 1.0, 1.0, np.inf, 1.0])),
     "placeholders: must be 5 finite, nonnegative levels"),
    (dict(algorithm="fqla-ideal", placeholders=np.array([1.0, 1.0, 1.0, 1.0, -1.0])),
     "placeholders: must be 5 finite, nonnegative levels"),
    (dict(placeholders=np.zeros(5)), "placeholders: applies to fqla-.* only, not qla"),
    (dict(algorithm="fqla-ideal", initial_backlog=np.ones(5)), "initial_backlog: applies to qla"),
    (dict(algorithm="fqla-general", initial_backlog=np.ones(5)),
     "initial_backlog: applies to qla"),
    (dict(algorithm="fqla-bisect", initial_backlog=np.ones(5)), "initial_backlog: applies to qla"),
    (dict(slots=1000.7), "slots: must be an integer"),
    (dict(slots=True), "slots: must be an integer"),
    (dict(burn_in=10.5), "burn_in: must be an integer"),
    (dict(burn_in=True), "burn_in: must be an integer"),
    (dict(V=True), "V: must be positive and finite"),
    (dict(seed=-1), r"seed: must be an integer >= 0, got -1"),
    (dict(deviation_reference=np.ones(1)), r"deviation_reference: must have shape \(5,\)"),
    (dict(deviation_reference=np.array([1.0, np.nan, 1.0, 1.0, 1.0])),
     "deviation_reference: must be 5 finite, nonnegative levels"),
    (dict(deviation_reference=np.array([1.0, 1.0, 1.0, 1.0, -1.0])),
     "deviation_reference: must be 5 finite, nonnegative levels"),
    (dict(stream=True), "stream: must be an integer >= 0, got True"),
    (dict(stream=-1), "stream: must be an integer >= 0, got -1"),
    (dict(stream=1.5), "stream: must be an integer >= 0, got 1.5"),
    (dict(algorithm="fqla-general", general_T=10.5),
     "general_T: must be an integer >= 1, got 10.5"),
    (dict(algorithm="fqla-general", general_K=True),
     "general_K: must be an integer >= 1, got True"),
    (dict(algorithm="fqla-bisect", bisect_T1=2.5),
     "bisect_T1: must be an integer >= 2, got 2.5"),
    (dict(general_K=0), "general_K: applies to fqla-general only, not qla"),
], ids=lambda v: v.replace(": ", " ", 1) if isinstance(v, str) else None)
def test_run_config_validation(five, kw, msg):
    base = dict(scenario=five, V=50.0, slots=5_000, seed=0)
    base.update(kw)
    with pytest.raises(ValueError, match=msg):
        run(RunConfig(**base))


# a value away from the default for each algorithm-specific field, and the
# fields each algorithm reads
_SET = dict(placeholders=np.ones(5), initial_backlog=np.ones(5), general_T=30, general_K=3,
            bisect_T1=10, bisect_guess=5.0)
_READS = {"qla": {"initial_backlog"}, "fqla-ideal": {"placeholders"},
          "fqla-general": {"placeholders", "general_T", "general_K"},
          "fqla-bisect": {"placeholders", "bisect_T1", "bisect_guess"}}


@pytest.mark.parametrize("field", list(_SET))
@pytest.mark.parametrize("algorithm", list(_READS))
def test_field_set_is_accepted_exactly_where_read(five, algorithm, field):
    config = RunConfig(scenario=five, V=10.0, slots=300, seed=0, algorithm=algorithm,
                       **{field: _SET[field]})
    if field in _READS[algorithm]:
        run(config)
    else:
        with pytest.raises(ValidationError,
                           match=rf"^{field}: applies to [a-z, -]+ only, not {algorithm}$"):
            run(config)


@pytest.mark.parametrize("algorithm,field", [
    ("fqla-general", "general_T"), ("fqla-general", "general_K"),
    ("fqla-bisect", "bisect_T1"), ("fqla-bisect", "bisect_guess")])
def test_given_placeholders_leave_the_estimator_fields_unread(five, algorithm, field):
    config = RunConfig(scenario=five, V=10.0, slots=300, seed=0, algorithm=algorithm,
                       placeholders=np.ones(5), **{field: _SET[field]})
    with pytest.raises(ValidationError) as err:
        run(config)
    assert str(err.value) == f"{field}: applies to {algorithm} only without placeholders"


@pytest.mark.parametrize("algorithm", list(_READS))
def test_fields_left_out_or_at_their_defaults_pass(five, algorithm):
    base = dict(scenario=five, V=10.0, slots=300, seed=0, algorithm=algorithm)
    defaults = dict(placeholders=None, initial_backlog=None, general_T=None, general_K=20,
                    bisect_T1=None, bisect_guess=None)
    assert (report_csv_row(run(RunConfig(**base, **defaults)))
            == report_csv_row(run(RunConfig(**base))))


def test_averages_cover_the_post_burn_in_window(five):
    rep = run(RunConfig(scenario=five, V=20.0, slots=10_000, seed=2,
                        record_trace=True))
    win = slice(rep.burn_in, rep.slots)
    assert rep.avg_cost == rep.trace.costs[win].mean()
    np.testing.assert_array_equal(rep.avg_backlog, rep.trace.u[win].mean(axis=0))
    assert rep.avg_backlog_total == rep.avg_backlog.sum()


def test_initial_backlog_honored(five):
    start = np.array([9.0, 8.0, 7.0, 6.0, 5.0])
    rep = run(RunConfig(scenario=five, V=20.0, slots=1_000, seed=0,
                        record_trace=True, initial_backlog=start))
    np.testing.assert_array_equal(rep.trace.u[0], start)


# -- drop accounting ---------------------------------------------------------


def test_drop_accounting_is_windowed(five):
    rep = run(RunConfig(scenario=five, V=100.0, slots=30_000, seed=0,
                        algorithm="fqla-ideal", record_trace=True))
    assert rep.burn_in == 3_000
    # the climb from W(0) = placeholders drops packets before the window
    assert rep.trace.dropped[:rep.burn_in].sum() > 0.0
    assert rep.drops.sum() == rep.trace.dropped[rep.burn_in:].sum()
    assert 0.0 <= rep.drop_fraction <= 1.0
    # offered counts the head queue's arrivals over the same window
    tab = tables(five.spec)
    offered = 0.0
    for t in range(rep.burn_in, rep.slots):
        i, k = int(rep.trace.states[t]), int(rep.trace.actions[t])
        offered += tab.arr_rows[i][k][0]
    assert rep.offered == offered


def test_zero_traffic_runs_are_silent(zero_traffic_spec):
    for alg, extra in (("qla", {}),
                       ("fqla-ideal", dict(placeholders=np.zeros(1))),
                       ("fqla-general", {})):
        rep = run(RunConfig(scenario=zero_traffic_spec, V=50.0, slots=3_000,
                            seed=0, algorithm=alg, **extra))
        assert rep.avg_cost == 0.0
        assert rep.avg_backlog_total == 0.0
        assert rep.drop_fraction == 0.0


# -- placeholder resolution --------------------------------------------------


def test_general_run_matches_direct_estimate(five):
    from lyapnet.sched import fqla_general_estimate

    rep = run(RunConfig(scenario=five, V=50.0, slots=2_000, seed=6, stream=2,
                        algorithm="fqla-general"))
    gen = np.random.default_rng(np.random.SeedSequence(6, spawn_key=(2, 1)))
    est = fqla_general_estimate(five, 50.0, rng=gen)
    np.testing.assert_array_equal(rep.placeholders, est.placeholders)


def test_general_estimate_seed_is_the_stream_zero_run(five):
    """An int seed s estimates with the generator run(seed=s, stream=0) hands over."""
    from lyapnet.sched import fqla_general_estimate

    rep = run(RunConfig(scenario=five, V=50.0, slots=2_000, seed=6, algorithm="fqla-general",
                        general_T=300, general_K=3))
    est = fqla_general_estimate(five, 50.0, T=300, K=3, rng=6)
    np.testing.assert_array_equal(rep.placeholders, est.placeholders)


def test_bisect_run_matches_direct_estimate(discq):
    from lyapnet.sched import bisection_placeholder

    rep = run(RunConfig(scenario=discq, V=50.0, slots=2_000, seed=6,
                        algorithm="fqla-bisect", bisect_T1=100))
    gen = np.random.default_rng(np.random.SeedSequence(6, spawn_key=(0, 2)))
    est = bisection_placeholder(discq, 50.0, T1=100, rng=gen)
    np.testing.assert_array_equal(rep.placeholders, est.placeholders)


def test_bisection_seed_is_the_stream_zero_run(discq):
    """An int seed s bisects with the generator run(seed=s, stream=0) hands over."""
    from lyapnet.sched import bisection_placeholder

    rep = run(RunConfig(scenario=discq, V=50.0, slots=2_000, seed=0,
                        algorithm="fqla-bisect", bisect_T1=100))
    est = bisection_placeholder(discq, 50.0, T1=100, rng=0)
    np.testing.assert_array_equal(rep.placeholders, est.placeholders)


def test_ideal_placeholders_follow_the_action_set(contq):
    V = 100.0
    rep = run(RunConfig(scenario=contq, V=V, slots=2_000, seed=0,
                        algorithm="fqla-ideal"))
    gap = math.log(V) ** 2 * math.sqrt(V)
    want = max(V * math.exp(0.5) - gap, 0.0)
    np.testing.assert_array_equal(rep.placeholders, [want])


def test_bare_continuous_spec_gets_the_handle_placeholders(contq):
    """The smooth rule comes from the action set, not from the handle, so a bare spec keeps it."""
    V = 1000.0
    cfg = RunConfig(scenario=contq, V=V, slots=2_000, seed=0, algorithm="fqla-ideal")
    want = run(cfg).placeholders
    with pytest.warns(UserWarning, match="numeric multiplier search"):
        got = run(dataclasses.replace(cfg, scenario=contq.spec)).placeholders
    assert want[0] == pytest.approx(V * math.exp(0.5) - math.log(V) ** 2 * math.sqrt(V))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_explicit_placeholders_win(five):
    wl = np.array([10.0, 10.0, 10.0, 10.0, 10.0])
    rep = run(RunConfig(scenario=five, V=50.0, slots=2_000, seed=0,
                        algorithm="fqla-ideal", placeholders=wl))
    np.testing.assert_array_equal(rep.placeholders, wl)


# -- deviation statistics ----------------------------------------------------


def test_deviation_record_and_histograms(five):
    rep = run(RunConfig(scenario=five, V=50.0, slots=60_000, seed=1))
    n = rep.slots - rep.burn_in
    assert rep.deviations.shape == (n,)
    np.testing.assert_array_equal(rep.deviation_reference, five.u_star(50.0))


def test_deviation_reference_override(five):
    ref = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    rep = run(RunConfig(scenario=five, V=50.0, slots=5_000, seed=1,
                        deviation_reference=ref, record_trace=True))
    win = slice(rep.burn_in, rep.slots)
    want = np.linalg.norm(rep.trace.u[win] - ref, axis=1)
    np.testing.assert_array_equal(rep.deviations, want)


def test_fqla_deviations_track_the_virtual_process(five):
    rep = run(RunConfig(scenario=five, V=50.0, slots=5_000, seed=1,
                        algorithm="fqla-ideal", record_trace=True))
    win = slice(rep.burn_in, rep.slots)
    want = np.linalg.norm(rep.trace.w[win] - five.u_star(50.0), axis=1)
    np.testing.assert_array_equal(rep.deviations, want)


def test_curve_from_deviations_by_hand():
    dev = np.array([0.2, 1.4, 1.4, 2.7, 9.0])
    curve = curve_from_deviations(dev, 1.0)
    # strictly above 1+m: 4 samples at m=0, 2 at m=1, one from m=2 on
    np.testing.assert_array_equal(curve.m[:4], [0, 1, 2, 3])
    np.testing.assert_allclose(curve.p[:4], [0.8, 0.4, 0.2, 0.2], rtol=1e-12)
    assert curve.p[-1] == 0.0
    assert curve.n_samples == 5


def test_curve_validation():
    with pytest.raises(ValueError, match="empty"):
        curve_from_deviations(np.array([]), 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        curve_from_deviations(np.array([1.0]), -2.0)


def test_deviation_curve_is_monotone_in_unit_range(five):
    rep = run(RunConfig(scenario=five, V=50.0, slots=60_000, seed=1))
    curve = deviation_statistics(rep, 5.0)
    assert (curve.p >= 0.0).all() and (curve.p <= 1.0).all()
    assert (np.diff(curve.p) <= 0.0).all()


def test_deviation_statistics_needs_reference(five):
    rep = run(RunConfig(scenario=five, V=50.0, slots=2_000, seed=1,
                        deviation_reference=None))
    rep.deviations = None
    with pytest.raises(ValueError, match="reference"):
        deviation_statistics(rep, 1.0)


def test_fit_tail_recovers_synthetic_slope():
    rng = np.random.default_rng(44)
    beta = 0.5
    dev = rng.exponential(1.0 / beta, 200_000)
    curve = curve_from_deviations(dev, 0.0)
    fit = fit_tail(curve)
    assert fit.beta_hat == pytest.approx(beta, rel=0.05)
    assert fit.r2 > 0.99


def test_fit_tail_needs_tail_mass():
    curve = curve_from_deviations(np.array([0.1, 0.2, 0.3]), 0.0)
    with pytest.raises(TailFitError):
        fit_tail(curve)


# -- per-slot invariant scan -------------------------------------------------


def test_invariant_scan_rejects_negative_start(five):
    # run() rejects a negative initial_backlog up front, so the scan gets
    # the bad path directly
    U = np.zeros((3, five.spec.r))
    U[0, 0] = -1.0
    with pytest.raises(SimInvariantError) as err:
        _invariant_scan(five.spec, np.array([0, 1]), U, None, None)
    assert err.value.slot == 0
    assert "negative" in str(err.value)


def test_invariant_scan_passes_clean_runs(five):
    rep = run(RunConfig(scenario=five, V=50.0, slots=20_000, seed=3,
                        algorithm="fqla-ideal", check_invariants=True))
    assert rep.sandwich_violations == 0


CHUNK = sim._CHUNK
EDGE_ROWS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 6]  # the last of 3 CHUNK + 7 rows


def _clean_paths(spec, rows, seed):
    """States and sandwiched U/W paths of ``rows`` rows, every step well under B."""
    rng = np.random.default_rng(seed)
    wl = np.full(spec.r, 10.0)
    W = wl + 3.0 + 0.1 * rng.random((rows, spec.r))
    U = W - wl + 0.5 * spec.delta_max
    return rng.integers(spec.n_states, size=rows - 1), U, W, wl


def _scan_error(scan):
    with pytest.raises(SimInvariantError) as err:
        scan()
    return err.value.slot, err.value.state, str(err.value)


@pytest.mark.parametrize("row", EDGE_ROWS)
@pytest.mark.parametrize("kind", ["negative", "jump", "sandwich"])
def test_block_scans_raise_what_the_whole_path_scan_raises(five, kind, row):
    """One violation anywhere, block edges included: scanning block by block
    (the row before each block, slot offset t0) raises the same slot, state
    and message as one scan of the whole path."""
    spec = five.spec
    idx, U, W, wl = _clean_paths(spec, 3 * CHUNK + 7, seed=row)
    _invariant_scan(spec, idx, U, W, wl)  # clean before the violation
    if kind == "negative":
        U[row, 2] = -0.5
    elif kind == "jump":  # a spike in both paths keeps the sandwich
        U[row] += spec.B
        W[row] += spec.B
    else:
        U[row, 4] += spec.delta_max
    slots = len(idx)

    def by_blocks():
        for t0 in range(0, slots, CHUNK):
            t1 = min(t0 + CHUNK, slots)
            _invariant_scan(spec, idx[t0:t1], U[t0:t1 + 1], W[t0:t1 + 1], wl, t0)

    want = _scan_error(lambda: _invariant_scan(spec, idx, U, W, wl))
    assert want[2].startswith({"negative": "backlog went negative",
                               "jump": "backlog moved",
                               "sandwich": "sandwich bound violated"}[kind])
    assert _scan_error(by_blocks) == want


# -- absorption --------------------------------------------------------------


def test_absorption_on_single_queue(discq):
    rep = run(RunConfig(scenario=discq, V=20.0, slots=20_000, seed=0,
                        record_trace=True))
    verdict = absorption_check(discq, 20.0, rep)
    assert verdict.ok
    assert verdict.entered_at is not None
    assert verdict.violations == 0
    lo, hi = verdict.interval
    assert lo == pytest.approx(20.0 * math.expm1(0.25) / 0.25 - discq.spec.B)
    assert hi == math.inf


def test_absorption_validation(five, discq):
    rep = run(RunConfig(scenario=five, V=20.0, slots=1_000, seed=0,
                        record_trace=True))
    with pytest.raises(ValueError, match="single"):
        absorption_check(five, 20.0, rep)
    no_trace = run(RunConfig(scenario=discq, V=20.0, slots=1_000, seed=0))
    with pytest.raises(ValueError, match="trace"):
        absorption_check(discq, 20.0, no_trace)


# -- CSV output --------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path, five):
    rep = run(RunConfig(scenario=five, V=20.0, slots=500, seed=0,
                        algorithm="fqla-ideal", record_trace=True))
    p = tmp_path / "trace.csv"
    write_trace_csv(rep, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == ("slot,state,cost,U_1,U_2,U_3,U_4,U_5,"
                        "W_1,W_2,W_3,W_4,W_5,dropped_this_slot")
    assert len(lines) == 501
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[3]) == rep.trace.u[0, 0]
    # a second write is byte-identical
    p2 = tmp_path / "again.csv"
    write_trace_csv(rep, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_trace_csv_blank_w_for_plain_runs(tmp_path, five):
    rep = run(RunConfig(scenario=five, V=20.0, slots=50, seed=0,
                        record_trace=True))
    p = tmp_path / "trace.csv"
    write_trace_csv(rep, str(p))
    row = p.read_text().splitlines()[1].split(",")
    assert row[8:13] == [""] * 5


def column_trace_csv(report):
    """The trace CSV as the writer built it before its row template: every
    column of a block formatted on its own with %.12g, the rows joined."""
    tr = report.trace
    n, r = tr.u.shape
    cols = (["slot", "state", "cost"] + [f"U_{j + 1}" for j in range(r)]
            + [f"W_{j + 1}" for j in range(r)] + ["dropped_this_slot"])
    out = [",".join(cols) + "\n"]

    def fmt(x):
        return ["%.12g" % v for v in x.tolist()]

    for s in range(0, n, sim._CSV_BLOCK):
        e = min(s + sim._CSV_BLOCK, n)
        block = [[str(t) for t in range(s, e)], [str(i) for i in tr.states[s:e].tolist()],
                 fmt(tr.costs[s:e])]
        block += [fmt(tr.u[s:e, j]) for j in range(r)]
        block += ([fmt(tr.w[s:e, j]) for j in range(r)] if tr.w is not None
                  else [[""] * (e - s)] * r)
        block.append(fmt(tr.dropped[s:e]) if tr.dropped is not None else ["0"] * (e - s))
        out.append("".join(",".join(row) + "\n" for row in zip(*block)))
    return "".join(out).encode()


@pytest.mark.parametrize("which", ["long_qla_report", "long_fqla_report"])
def test_trace_csv_longer_than_a_block_matches_the_column_writer(which, request, tmp_path):
    rep = request.getfixturevalue(which)
    assert len(rep.trace.u) > 2 * sim._CSV_BLOCK
    p = tmp_path / "trace.csv"
    write_trace_csv(rep, str(p))
    assert p.read_bytes() == column_trace_csv(rep)


def test_trace_csv_requires_trace(five, tmp_path):
    rep = run(RunConfig(scenario=five, V=20.0, slots=50, seed=0))
    with pytest.raises(ValueError, match="trace"):
        write_trace_csv(rep, str(tmp_path / "x.csv"))


def test_report_csv_layout(tmp_path, five):
    qla = run(RunConfig(scenario=five, V=20.0, slots=2_000, seed=0))
    fq = run(RunConfig(scenario=five, V=20.0, slots=2_000, seed=0,
                       algorithm="fqla-ideal"))
    p = tmp_path / "report.csv"
    write_report_csv([qla, fq], str(p))
    lines = p.read_text().splitlines()
    header = report_csv_header(5)
    assert lines[0] == ",".join(header)
    assert len(lines) == 3
    qla_row = lines[1].split(",")
    assert qla_row[header.index("avg_virtual_total")] == ""
    assert qla_row[header.index("scenario")] == "five-queue-chain"
    fq_row = lines[2].split(",")
    assert float(fq_row[header.index("avg_virtual_total")]) == pytest.approx(
        fq.avg_virtual_backlog_total)
    assert report_csv_row(qla) == qla_row


def test_csv_float_format_is_12_significant_digits(tmp_path, five):
    rep = run(RunConfig(scenario=five, V=20.0, slots=2_000, seed=0))
    row = report_csv_row(rep)
    header = report_csv_header(5)
    assert row[header.index("avg_cost")] == "%.12g" % rep.avg_cost
