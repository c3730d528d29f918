"""The benchmark's three workloads.

A workload is a fixed list of operations made from the seed.  The timed
section repeats that list with the same inputs, one operation at a time
(closed loop, one client), so every repetition must reproduce the first
one's digest.  Each operation checks its own correctness bar and returns an
:class:`Outcome`; a bar that breaks is an error string, never an exception.

Library functions are always looked up through their module at call time
(``sim.run``, not a bound name), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Outcome:
    slots: int = 0  # simulated slots: runs, CLI simulations, estimator warmups
    digest: str = ""
    error: "str | None" = None
    stats: dict = field(default_factory=dict)
    peak_slots: int = 0  # slots of the largest single run inside the operation


@dataclass
class Op:
    name: str
    fn: Callable[[], Outcome]
    span: str = "op"  # span name in the traced round; CLI commands use their subcommand
    group: str = ""  # operations of one group do the same work; their times are pooled

    def __post_init__(self):
        self.group = self.group or self.name


@dataclass
class Workload:
    name: str
    ops: list[Op]
    memory_op: str  # the operation whose peak heap is peak_mb
    quality: Callable[[dict], dict]  # first-round outcomes -> quality statistics


def digest(*parts) -> str:
    """Bit-level digest: floats by their hex form, arrays by their bytes."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        elif isinstance(p, float):
            h.update(p.hex().encode())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def report_digest(rep) -> str:
    return digest(rep.scenario, rep.algorithm, float(rep.V), rep.seed, rep.stream, rep.slots,
                  rep.burn_in, float(rep.avg_cost), rep.avg_backlog, rep.final_backlog,
                  rep.drops, float(rep.drop_fraction), float(rep.offered),
                  rep.avg_virtual_backlog, rep.final_virtual, rep.placeholders,
                  rep.sandwich_violations)


def _mean(xs) -> float:
    return float(statistics.fmean(xs)) if xs else 0.0


# Scenarios each workload builds during set-up.
SCENARIOS = {
    "headline": ["five-queue-chain"],
    "cli-continuous": ["single-queue-continuous"],
    "learn": ["five-queue-chain", "two-queue", "single-queue-continuous",
              "single-queue-discrete"],
}


# -- headline: five-queue chain at V=100 through run() -----------------------

HEADLINE_V = 100.0
HEADLINE_SLOTS = 25_000
HEADLINE_RUNS = 2  # seeds per algorithm in one round


def headline(lib, handles: dict, seed: int, workdir: str) -> Workload:
    sim = lib.sim
    five = handles["five-queue-chain"]
    f_star = five.f_star
    latest_qla: dict[str, object] = {}
    ops = []

    def run_op(name: str, alg: str, run_seed: int) -> Callable[[], Outcome]:
        def fn() -> Outcome:
            rep = sim.run(sim.RunConfig(scenario=five, V=HEADLINE_V, algorithm=alg,
                                        slots=HEADLINE_SLOTS, seed=run_seed))
            if alg == "qla":
                latest_qla[name] = rep
            error = None
            if rep.sandwich_violations:
                error = f"{rep.sandwich_violations} sandwich violations"
            return Outcome(rep.slots, report_digest(rep), error,
                           {"algorithm": alg, "avg_cost": rep.avg_cost,
                            "backlog": rep.avg_backlog_total,
                            "drop_fraction": rep.drop_fraction},
                           peak_slots=rep.slots)
        return fn

    for j in range(HEADLINE_RUNS):
        run_seed = seed * HEADLINE_RUNS + j
        for alg in ("qla", "fqla-ideal"):
            name = f"run:{alg}:seed{run_seed}"
            ops.append(Op(name, run_op(name, alg, run_seed), group=f"run:{alg}"))

    def stats_op() -> Outcome:
        parts = []
        for name in sorted(latest_qla):
            rep = latest_qla[name]
            D = float(np.percentile(rep.deviations, 75.0))
            curve = sim.deviation_statistics(rep, D)
            fit = sim.fit_tail(curve)
            parts += [D, float(fit.c_hat), float(fit.beta_hat), float(fit.r2)]
        latest_qla.clear()
        return Outcome(0, digest(*parts))

    ops.append(Op("stats:qla-tail", stats_op))

    def quality(outcomes: dict) -> dict:
        runs = [o.stats for o in outcomes.values() if o.stats]
        fqla = [s for s in runs if s["algorithm"] != "qla"]
        return {"cost_gap_pct": _mean([100 * abs(s["avg_cost"] - f_star) / f_star for s in runs]),
                "fqla_backlog": _mean([s["backlog"] for s in fqla]),
                "drop_fraction": _mean([s["drop_fraction"] for s in fqla])}

    return Workload("headline", ops, memory_op=ops[1].name, quality=quality)


# -- cli-continuous: the command-line path on single-queue-continuous --------

CLI_SCENARIO = "single-queue-continuous"
CLI_V_LIST = "100,400,1000"
CLI_SWEEP_SLOTS = 5_000
CLI_TRACE_V = 1000.0
CLI_TRACE_SLOTS = 20_000


def cli_continuous(lib, handles: dict, seed: int, workdir: str) -> Workload:
    cli = lib.cli
    f_star = handles[CLI_SCENARIO].f_star
    seeds = f"{2 * seed},{2 * seed + 1}"
    n_cells = 3 * 2

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    def invoke(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = (out.getvalue() + err.getvalue()).replace(workdir, "<work>")
        return code, text

    def file_bytes(*names: str) -> list[bytes]:
        out = []
        for name in names:
            with open(path(name), "rb") as fh:
                out.append(fh.read())
        return out

    def report_rows(name: str) -> list[dict]:
        with open(path(name), newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def sandwich_error(rows: list[dict]) -> "str | None":
        bad = [r["sandwich_violations"] for r in rows if r["sandwich_violations"] not in ("", "0")]
        return f"sandwich violations {bad} in the report" if bad else None

    def sweep_op(alg: str) -> Callable[[], Outcome]:
        files = (f"sweep-{alg}.csv", f"backlog-{alg}.svg", f"drops-{alg}.svg")

        def fn() -> Outcome:
            code, text = invoke(["sweep", "--scenario", CLI_SCENARIO, "--alg", alg,
                                 "--V-list", CLI_V_LIST, "--seeds", seeds,
                                 "--slots", str(CLI_SWEEP_SLOTS), "--jobs", "1",
                                 "--report", path(files[0]), "--plot-backlog", path(files[1]),
                                 "--plot-drops", path(files[2])])
            if code != 0:
                return Outcome(error=f"exit code {code}: {text.strip()[-200:]}")
            rows = report_rows(files[0])
            error = sandwich_error(rows)
            if len(rows) != n_cells:
                error = f"{len(rows)} report rows, expected {n_cells}"
            stats = {"algorithm": alg,
                     "avg_cost": [float(r["avg_cost"]) for r in rows],
                     "backlog": [float(r["avg_backlog_total"]) for r in rows],
                     "drop_fraction": [float(r["drop_fraction"]) for r in rows]}
            return Outcome(n_cells * CLI_SWEEP_SLOTS, digest(text, *file_bytes(*files)),
                           error, stats, peak_slots=CLI_SWEEP_SLOTS)
        return fn

    def run_trace_op() -> Outcome:
        code, text = invoke(["run", "--scenario", CLI_SCENARIO, "--alg", "fqla-ideal",
                             "--V", str(CLI_TRACE_V), "--slots", str(CLI_TRACE_SLOTS),
                             "--seed", str(seed), "--trace", path("trace.csv"),
                             "--report", path("run.csv")])
        if code != 0:
            return Outcome(error=f"exit code {code}: {text.strip()[-200:]}")
        return Outcome(CLI_TRACE_SLOTS, digest(text, *file_bytes("trace.csv", "run.csv")),
                       sandwich_error(report_rows("run.csv")), peak_slots=CLI_TRACE_SLOTS)

    def analyze_tail_op() -> Outcome:
        code, text = invoke(["analyze", "--scenario", CLI_SCENARIO, "--V", str(CLI_TRACE_V),
                             "--trace", path("trace.csv"), "--mode", "tail",
                             "--out", path("curve.csv"), "--plot", path("tail.svg")])
        if code != 0:
            return Outcome(error=f"exit code {code}: {text.strip()[-200:]}")
        return Outcome(0, digest(text, *file_bytes("curve.csv", "tail.svg")))

    ops = [Op("sweep:qla", sweep_op("qla"), "cli.sweep"),
           Op("sweep:fqla-ideal", sweep_op("fqla-ideal"), "cli.sweep"),
           Op("run:trace", run_trace_op, "cli.run"),
           Op("analyze:tail", analyze_tail_op, "cli.analyze")]

    def quality(outcomes: dict) -> dict:
        sweeps = [o.stats for o in outcomes.values() if o.stats]
        costs = [c for s in sweeps for c in s["avg_cost"]]
        fqla = [s for s in sweeps if s["algorithm"] != "qla"]
        return {"cost_gap_pct": _mean([100 * abs(c - f_star) / f_star for c in costs]),
                "fqla_backlog": _mean([b for s in fqla for b in s["backlog"]]),
                "drop_fraction": _mean([d for s in fqla for d in s["drop_fraction"]])}

    return Workload("cli-continuous", ops, memory_op="sweep:fqla-ideal", quality=quality)


# -- learn: multiplier search and placeholder estimation ---------------------

LEARN_V = 100.0
LEARN_EXTRA_V = 50.0  # second V for the five-queue search
LEARN_K = 20
LEARN_T = int(50 * LEARN_V)
LEARN_ESTIMATES = 10  # seeds in one round
ESTIMATE_SLACK = 1.5  # multiples of ln^2 V, the acceptance bar
CONTINUOUS_RTOL = 1e-6


def learn(lib, handles: dict, seed: int, workdir: str) -> Workload:
    dual, sched = lib.dual, lib.sched
    five = handles["five-queue-chain"]
    lnv2 = math.log(LEARN_V) ** 2

    def search_op(name: str, V: float) -> Callable[[], Outcome]:
        handle = handles[name]

        def fn() -> Outcome:
            res = dual.find_optimal_multiplier(handle, V, method="numeric", rng=seed)
            want = np.asarray(handle.u_star(V), dtype=float)
            if handle.spec.is_finite:
                ok = np.array_equal(res.u_star, want)
            else:
                ok = np.allclose(res.u_star, want, rtol=CONTINUOUS_RTOL, atol=0.0)
            error = None if ok and res.probe_ok else \
                f"U*={res.u_star.tolist()} vs closed form {want.tolist()}"
            return Outcome(0, digest(res.u_star, float(res.value), res.iterations), error)
        return fn

    def estimate_op(est_seed: int) -> Callable[[], Outcome]:
        ideal = sched.fqla_placeholder_ideal(five.u_star(LEARN_V), LEARN_V)

        def fn() -> Outcome:
            est = sched.fqla_general_estimate(five, LEARN_V, T=LEARN_T, K=LEARN_K, rng=est_seed)
            err = float(np.abs(est.placeholders - ideal).max()) / lnv2
            error = None if err <= ESTIMATE_SLACK else \
                f"placeholder error {err:.3f} ln^2 V > {ESTIMATE_SLACK}"
            return Outcome(est.K * est.T, digest(est.placeholders, est.w_terminal_mean),
                           error, {"placeholder_err": err})
        return fn

    searches = [Op(f"search:{name}:V{LEARN_V:g}", search_op(name, LEARN_V))
                for name in SCENARIOS["learn"]]
    searches.append(Op(f"search:five-queue-chain:V{LEARN_EXTRA_V:g}",
                       search_op("five-queue-chain", LEARN_EXTRA_V)))
    estimates = [Op(f"estimate:seed{s}", estimate_op(s), group="estimate")
                 for s in range(seed * LEARN_ESTIMATES, (seed + 1) * LEARN_ESTIMATES)]
    # Alternate the short estimates with the long searches, so that the
    # host's slow and fast phases reach both kinds alike.
    per = -(-len(estimates) // len(searches))
    ops = []
    for k, op in enumerate(searches):
        ops += [op] + estimates[k * per:(k + 1) * per]

    def quality(outcomes: dict) -> dict:
        errs = [o.stats["placeholder_err"] for o in outcomes.values() if o.stats]
        return {"placeholder_err": max(errs) if errs else 0.0}

    return Workload("learn", ops, memory_op=estimates[0].name, quality=quality)


WORKLOADS = {"headline": headline, "cli-continuous": cli_continuous, "learn": learn}
