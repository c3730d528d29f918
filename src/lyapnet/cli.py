"""Command-line front end.

Subcommands: ``run`` (one simulation), ``sweep`` (a V x seed grid, optionally
in parallel), ``dual`` (evaluate / maximize / scan the dual function),
``analyze`` (tail, absorption, and sandwich checks on a recorded trace),
``export-scenario`` (write a built-in as a scenario JSON file).

Exit codes: 0 success, 1 runtime error or failed check, 2 flag/validation
error.  Diagnostics go to standard error.  Only ``run`` takes ``--seed``
(default LYAPNET_SEED, else 0).  CSV and SVG outputs are byte-stable for
identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import scenarios
from . import sim as simulation
from .dual import ConvergenceError, evaluate_dual, find_optimal_multiplier
from .model import ValidationError, spec_to_dict
from .sched import ALGORITHMS
from .sim import _fmt

__all__ = ["main"]

_SCAN_POINTS = 10**5  # largest grid of lyapnet dual --scan


class UsageError(Exception):
    pass


def _env_seed() -> int:
    raw = os.environ.get("LYAPNET_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer LYAPNET_SEED={raw!r}", file=sys.stderr)
        return 0


def _vector(text: str, name: str):
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"--{name} expects comma-separated numbers, got {text!r}")


def _load_scenario(args) -> scenarios.ScenarioHandle:
    if getattr(args, "file", None) and getattr(args, "scenario", None):
        raise UsageError("give either --scenario or --file, not both")
    if getattr(args, "file", None):
        return scenarios.load_from_file(args.file)
    if getattr(args, "scenario", None):
        try:
            return scenarios.by_name(args.scenario)
        except KeyError as e:
            raise UsageError(str(e.args[0]))
    raise UsageError("a scenario is required (--scenario NAME or --file PATH)")


def _maybe_vector(args, attr: str, r: int):
    raw = getattr(args, attr, None)
    if raw is None:
        return None
    v = _vector(raw, attr.replace("_", "-"))
    if v.shape != (r,):
        raise UsageError(f"--{attr.replace('_', '-')} needs {r} entries, got {v.size}")
    return v


def _make_config(args, handle, V: float, seed: int) -> simulation.RunConfig:
    r = handle.spec.r
    return simulation.RunConfig(
        scenario=handle,
        V=V,
        algorithm=args.alg,
        slots=args.slots,
        seed=seed,
        stream=args.stream,
        burn_in=args.burn_in,
        record_trace=bool(getattr(args, "trace", None)),
        check_invariants=getattr(args, "check_invariants", False),
        deviation_reference=_maybe_vector(args, "reference", r),
        placeholders=_maybe_vector(args, "placeholders", r),
        general_T=args.general_T,
        general_K=args.general_K,
        bisect_T1=args.bisect_T1,
        bisect_guess=args.bisect_guess,
        initial_backlog=_maybe_vector(args, "initial_backlog", r),
    )


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_chart(path: str, series, **kw) -> None:
    """Write an SVG chart of ``(label, x, y[, kind])`` series; loads the plotting module only here."""
    from ._svg import Series, render_chart

    _write(path, render_chart([Series(*s) for s in series], **kw))


def _summary_line(rep: simulation.SimReport) -> str:
    line = (f"{rep.scenario} {rep.algorithm} V={_fmt(rep.V)} seed={rep.seed}: "
            f"avg_cost={_fmt(rep.avg_cost)} "
            f"avg_backlog_total={_fmt(rep.avg_backlog_total)} "
            f"drop_fraction={_fmt(rep.drop_fraction)}")
    if rep.avg_virtual_backlog_total is not None:
        line += f" avg_virtual_total={_fmt(rep.avg_virtual_backlog_total)}"
    return line


# -- run ---------------------------------------------------------------------


def cmd_run(args) -> int:
    handle = _load_scenario(args)
    seed = _env_seed() if args.seed is None else args.seed
    rep = simulation.run(_make_config(args, handle, args.V, seed))
    if args.trace:
        simulation.write_trace_csv(rep, args.trace)
    if args.report:
        simulation.write_report_csv([rep], args.report)
    print(_summary_line(rep))
    return 0


# -- sweep -------------------------------------------------------------------


def _sweep_worker(batch, handle=None):
    """Run a batch ``(args, [(V, seed), ...])`` of sweep cells as one batched kernel.

    Returns ("ok", report) or ("err", message) per cell, in order.  Each
    cell's config is checked and resolved on its own first, so a bad cell
    fails alone; the good ones then run together through the second step
    of sim.run_many, which keeps no per-slot series.  Only a worker process
    loads the scenario; an in-process sweep passes the ``handle`` it built.
    """
    args, cells = batch
    handle = handle or _load_scenario(args)
    results, setups = [], []
    for V, seed in cells:
        try:
            setups.append(simulation._setup(_make_config(args, handle, V, seed)))
            results.append(None)
        except Exception as e:  # report per-cell, keep the sweep going
            results.append(("err", f"V={V:g} seed={seed}: {e}"))
    reports = iter(simulation._run_batched(setups))
    return [res or ("ok", next(reports)) for res in results]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be a positive number of worker processes, got {args.jobs}")
    handle = _load_scenario(args)
    r = handle.spec.r
    try:
        v_list = [float(p) for p in args.V_list.split(",")]
        seeds = [int(p) for p in args.seeds.split(",")]
    except ValueError:
        raise UsageError("--V-list and --seeds expect comma-separated numbers")
    if not v_list or not seeds:
        raise UsageError("--V-list and --seeds must be non-empty")
    _maybe_vector(args, "placeholders", r)  # a bad vector is a usage error, not a cell failure
    cells = [(V, seed) for seed in seeds for V in v_list]
    jobs = min(args.jobs, len(cells))  # one contiguous batch of cells per job
    batches = [(args, cells[k * len(cells) // jobs:(k + 1) * len(cells) // jobs])
               for k in range(jobs)]
    if jobs == 1:
        results = _sweep_worker(batches[0], handle)
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; only here

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = [res for part in ex.map(_sweep_worker, batches) for res in part]

    reports, failures = [], []
    for status, payload in results:
        if status == "ok":
            reports.append(payload)
            print(_summary_line(payload))
        else:
            failures.append(payload)
            print(f"sweep cell failed: {payload}", file=sys.stderr)
    if reports:
        simulation.write_report_csv(reports, args.report)
        print(f"wrote {len(reports)} rows to {args.report}")

    caption = f"{handle.name} {args.alg} seeds={args.seeds}"
    plots = [(args.plot_backlog, "avg_backlog_total", "Average total backlog vs V",
              "avg total backlog", False),
             (args.plot_drops, "drop_fraction", "Drop fraction vs V", "drop fraction", True)]
    for path, field, title, ylabel, log_y in plots:
        if not (path and reports):
            continue
        series = []
        for seed in seeds:
            rows = [(rep.V, getattr(rep, field)) for rep in reports if rep.seed == seed]
            if rows:
                xs, ys = zip(*rows)
                series.append((f"seed {seed}", np.array(xs), np.array(ys)))
        write_chart(path, series, title=title, caption=caption, xlabel="V", ylabel=ylabel,
                    log_y=log_y)
        print(f"wrote {path}")
    return 1 if failures else 0


# -- dual --------------------------------------------------------------------


def _dual_csv(r: int, evals) -> str:
    """CSV text with one U_*,q,G_* row per (multiplier u, its DualEval) pair."""
    lines = [",".join([f"U_{j + 1}" for j in range(r)] + ["q"] + [f"G_{j + 1}" for j in range(r)])]
    lines += [",".join(_fmt(x) for x in [*u, ev.value, *ev.subgradient]) for u, ev in evals]
    return "\n".join(lines) + "\n"


def cmd_dual(args) -> int:
    handle = _load_scenario(args)
    spec = handle.spec
    r = spec.r
    modes = sum(fl is not None and fl is not False
                for fl in (args.at, args.find_opt or None, args.scan))
    if modes != 1:
        raise UsageError("choose exactly one of --at, --find-opt, --scan")

    if args.at is not None:
        u = _maybe_vector(args, "at", r)
        ev = evaluate_dual(spec, args.V, u)
        print(f"q(U) = {_fmt(ev.value)}")
        print("G(U) = (" + ", ".join(_fmt(g) for g in ev.subgradient) + ")")
        acts = " ".join(_fmt(a) if isinstance(a, float) else str(a)
                        for a in ev.argmin_actions)
        print(f"argmin actions: {acts}")
        if args.out:
            _write(args.out, _dual_csv(r, [(u, ev)]))
            print(f"wrote {args.out}")
        return 0

    if args.find_opt:
        res = find_optimal_multiplier(handle, args.V, method=args.method)
        print("U*_V = (" + ", ".join(_fmt(x) for x in res.u_star) + ")")
        print(f"q* = {_fmt(res.value)}")
        print(f"method = {res.method}  iterations = {res.iterations}  "
              f"probe_ok = {res.probe_ok}")
        return 0

    lo, hi, steps = args.scan
    if r > 2:
        raise UsageError("--scan is limited to r <= 2")
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > max(lo, 0.0)):
        raise UsageError("--scan needs finite LO and HI with HI > max(LO, 0)")
    if not steps.is_integer() or steps < 2 or int(steps) ** r > _SCAN_POINTS:
        raise UsageError(f"--scan needs an integer STEPS of at least 2, with STEPS^r "
                         f"at most {_SCAN_POINTS} grid points")
    grid = np.linspace(max(lo, 0.0), hi, int(steps))
    points = [np.array([a]) for a in grid] if r == 1 else \
        [np.array([a, b]) for a in grid for b in grid]
    text = _dual_csv(r, [(u, evaluate_dual(spec, args.V, u)) for u in points])
    if args.out:
        _write(args.out, text)
        print(f"wrote {len(points)} grid points to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# -- analyze -----------------------------------------------------------------


def _read_trace(path: str):
    """Parse the U and W columns of a trace CSV; W is None when its columns are empty.

    np.loadtxt parses the U, non-empty W and last columns (the last catches
    a row cut short) with float()'s bits; no data rows, or a missing or
    non-numeric field, raise ValidationError naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header, first = next(reader, []), next(reader, None)
    if not first:
        raise ValidationError(path, "trace file has no data rows")
    u_cols = [j for j, name in enumerate(header) if name.startswith("U_")]
    w_cols = [j for j, name in enumerate(header) if name.startswith("W_")]
    if "state" not in header or not u_cols:
        raise ValidationError(path, "not a trace CSV (missing state/U_ columns)")
    if w_cols and first[w_cols[0]:w_cols[0] + 1] == [""]:
        w_cols = []
    try:
        cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8",
                          comments=None, usecols=u_cols + w_cols + [len(header) - 1])
    except ValueError as e:
        raise ValidationError(path, str(e)) from None
    return cols[:, :len(u_cols)], (cols[:, len(u_cols):-1] if w_cols else None)


def cmd_analyze(args) -> int:
    handle = _load_scenario(args)
    spec = handle.spec
    r = spec.r
    u, w = _read_trace(args.trace)
    n = len(u)
    caption = f"{handle.name} V={args.V:g} trace={os.path.basename(args.trace)}"

    if args.mode == "tail":
        ref = _maybe_vector(args, "reference", r)
        if ref is None:
            if handle.u_star is None:
                raise UsageError("no reference point known for this scenario; "
                                 "pass --reference")
            ref = np.asarray(handle.u_star(args.V), dtype=float)
        burn = args.burn_in
        if burn is None:
            burn = simulation.default_burn_in(args.V, n)
        if not (0 <= burn < n):
            raise UsageError(f"--burn-in must lie in [0, {n}), got {burn}")
        X = w if w is not None else u
        dev = np.linalg.norm(X[burn:] - ref, axis=1)
        D = args.D if args.D is not None else float(np.percentile(dev, 75.0))
        curve = simulation.curve_from_deviations(dev, D)
        if args.out:
            _write(args.out, "m,p\n" + "".join(f"{m},{_fmt(p)}\n" for m, p in zip(curve.m, curve.p)))
            print(f"wrote {args.out}")
        fit = simulation.fit_tail(curve)
        print(f"D = {_fmt(D)}  samples = {curve.n_samples}")
        print(f"c_hat = {_fmt(fit.c_hat)}  beta_hat = {_fmt(fit.beta_hat)}  "
              f"r2 = {_fmt(fit.r2)}")
        if args.plot:
            mask = curve.p > 0
            ms = curve.m[mask].astype(float)
            fitted = fit.c_hat * np.exp(-fit.beta_hat * ms)
            write_chart(args.plot,
                        [("empirical", ms, curve.p[mask], "scatter"), ("fit", ms, fitted)],
                        title="Deviation tail P(D, m)", caption=caption,
                        xlabel="m", ylabel="fraction of slots", log_y=True)
            print(f"wrote {args.plot}")
        return 0

    if args.mode == "absorption":
        if r != 1:
            raise UsageError("absorption analysis needs a single-queue trace")
        ab = simulation._path_absorption(handle, args.V, u)
        hi = "inf" if math.isinf(ab.interval[1]) else _fmt(ab.interval[1])
        print(f"interval = [{_fmt(ab.interval[0])}, {hi}]")
        if ab.entered_at is None:
            print("never entered the interval")
            return 1
        verdict = "never left" if ab.ok else f"violations: {ab.violations}"
        print(f"entered at t0={ab.entered_at}, {verdict}")
        return 0 if ab.ok else 1

    # sandwich
    if w is None:
        raise UsageError("sandwich analysis needs an FQLA trace with W columns")
    wl = _maybe_vector(args, "placeholders", r)
    if wl is None:
        wl = w[0].copy()  # FQLA starts from W(0) = placeholder levels
    # the trace keeps 12 significant digits, so each of U, W and the
    # placeholders may be off by 5e-12 of its magnitude
    tol = 1e-9 + 1e-11 * (np.abs(u) + np.abs(w) + np.abs(wl))
    violations = int(simulation._sandwich_bad(u, w, wl, spec.delta_max, tol).sum())
    print("placeholders = (" + ", ".join(_fmt(x) for x in wl) + ")")
    print(f"violations: {violations}")
    return 0 if violations == 0 else 1


# -- export-scenario ---------------------------------------------------------


def cmd_export_scenario(args) -> int:
    handle = _load_scenario(args)
    payload = spec_to_dict(handle.spec)
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {handle.name} to {args.out}")
    return 0


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapnet",
        description="Quadratic-Lyapunov scheduling: simulate, analyze, and "
                    "probe the dual problem.")
    sub = parser.add_subparsers(dest="command", required=True)

    scenario_flags = argparse.ArgumentParser(add_help=False)
    scenario_flags.add_argument("--scenario", help="built-in scenario name")
    scenario_flags.add_argument("--file", help="scenario JSON file")

    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--alg", choices=ALGORITHMS, default="qla")
    run_flags.add_argument("--slots", type=int, default=100_000)
    run_flags.add_argument("--stream", type=int, default=0,
                           help="substream index under the seed")
    run_flags.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    run_flags.add_argument("--placeholders", default=None,
                           help="override placeholder levels, comma-separated")
    run_flags.add_argument("--general-T", dest="general_T", type=int, default=None)
    run_flags.add_argument("--general-K", dest="general_K", type=int, default=20)
    run_flags.add_argument("--bisect-T1", dest="bisect_T1", type=int, default=None)
    run_flags.add_argument("--bisect-guess", dest="bisect_guess", type=float, default=None)

    p_run = sub.add_parser("run", parents=[scenario_flags, run_flags],
                           help="simulate one run")
    p_run.add_argument("--V", type=float, required=True)
    p_run.add_argument("--seed", type=int, help="RNG seed (default: LYAPNET_SEED or 0)")
    p_run.add_argument("--trace", default=None, help="write per-slot trace CSV here")
    p_run.add_argument("--report", default=None, help="write one-row report CSV here")
    p_run.add_argument("--check-invariants", dest="check_invariants",
                       action="store_true")
    p_run.add_argument("--reference", default=None,
                       help="deviation reference point, comma-separated")
    p_run.add_argument("--initial-backlog", dest="initial_backlog", default=None)

    p_sweep = sub.add_parser("sweep", parents=[scenario_flags, run_flags], allow_abbrev=False,
                             help="run a V x seed grid")  # so --seed is not read as --seeds
    p_sweep.add_argument("--V-list", dest="V_list", required=True,
                         help="comma-separated V values")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seed values")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes")
    p_sweep.add_argument("--report", required=True, help="report CSV output path")
    p_sweep.add_argument("--plot-backlog", dest="plot_backlog", default=None,
                         help="SVG: avg total backlog vs V")
    p_sweep.add_argument("--plot-drops", dest="plot_drops", default=None,
                         help="SVG: drop fraction vs V, log scale")

    p_dual = sub.add_parser("dual", parents=[scenario_flags],
                            help="evaluate or maximize the dual function")
    p_dual.add_argument("--V", type=float, required=True)
    p_dual.add_argument("--at", default=None,
                        help="evaluate q at this multiplier, comma-separated")
    p_dual.add_argument("--find-opt", dest="find_opt", action="store_true",
                        help="search for the optimal multiplier")
    p_dual.add_argument("--scan", nargs=3, type=float, default=None,
                        metavar=("LO", "HI", "STEPS"),
                        help="grid-scan q over [LO, HI] (r <= 2 only)")
    p_dual.add_argument("--method", choices=("auto", "closed-form", "numeric"),
                        default="auto")
    p_dual.add_argument("--out", default=None, help="CSV output path")

    p_an = sub.add_parser("analyze", parents=[scenario_flags],
                          help="analyze a recorded trace")
    p_an.add_argument("--V", type=float, required=True)
    p_an.add_argument("--trace", required=True, help="trace CSV to read")
    p_an.add_argument("--mode", choices=("tail", "absorption", "sandwich"),
                      required=True)
    p_an.add_argument("--D", type=float, default=None,
                      help="tail offset (default: 75th percentile deviation)")
    p_an.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p_an.add_argument("--reference", default=None,
                      help="deviation reference point, comma-separated")
    p_an.add_argument("--placeholders", default=None,
                      help="placeholder levels for sandwich mode")
    p_an.add_argument("--out", default=None, help="curve CSV output path")
    p_an.add_argument("--plot", default=None, help="SVG output path")

    p_exp = sub.add_parser("export-scenario", parents=[scenario_flags],
                           help="write a built-in scenario to JSON")
    p_exp.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse already printed usage
        return int(e.code or 0)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (UsageError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConvergenceError, simulation.SimInvariantError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)  # a TailFitError is a ValueError
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
