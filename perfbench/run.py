"""lyapnet benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``lyapnet`` from its
``src/`` directory; nothing needs building.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` it holds the per-layer metrics of one traced
round plus the tracing overhead.  Earlier lines are a human-readable report.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 10  # before the timed section, and as many after it
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 0
WORK_DIR = ROOT / ".perfbench-work"
SPANS_DIR = ROOT / ".perfbench-out"

E2E_UNITS = {"setup_s": "s", "slots_per_s": "slots/s", "round_s": "s", "peak_mb": "MB"}

# quality statistic -> per-layer metric name
QUALITY_LAYERS = {"cost_gap_pct": "sim.cost_gap_pct", "fqla_backlog": "sim.fqla_backlog",
                  "drop_fraction": "sim.drop_fraction",
                  "placeholder_err": "sched.placeholder_err"}


class LibraryMissing(RuntimeError):
    pass


def _purge_library() -> None:
    for name in [m for m in sys.modules if m == "lyapnet" or m.startswith("lyapnet.")]:
        del sys.modules[name]


def import_library():
    """Import lyapnet from this checkout's src/, refusing any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        lib = importlib.import_module("lyapnet")
        for sub in ("model", "scenarios", "dual", "sched", "sim", "cli"):
            importlib.import_module("lyapnet." + sub)
    except ImportError as exc:
        raise LibraryMissing(f"cannot import lyapnet from {SRC}: {exc}") from exc
    if Path(lib.__file__).resolve().parent.parent != SRC.resolve():
        raise LibraryMissing(f"lyapnet imported from {lib.__file__}, not from {SRC}")
    return lib


def build_scenarios(lib, names: list[str]) -> dict:
    handles = {}
    for name in names:
        handle = lib.scenarios.by_name(name)
        if handle.spec.is_finite:
            lib.model.tables(handle.spec)
        handles[name] = handle
    return handles


def setup_times(names: list[str], reps: int):
    """Times of fresh imports of lyapnet, each building the scenarios and tables.

    Each repetition drops lyapnet from ``sys.modules`` and imports it again;
    returns the last library, its scenario handles and the times.
    """
    times = []
    for _ in range(reps):
        _purge_library()
        t0 = time.perf_counter()
        lib = import_library()
        handles = build_scenarios(lib, names)
        times.append(time.perf_counter() - t0)
    return lib, handles, times


class Runner:
    """Runs one workload's operations, checks each, and keeps their timings."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[str, workloads.Outcome] = {}

    def call(self, op: workloads.Op) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # a raising operation counts as failed; keep measuring
            out = workloads.Outcome(error=f"raised {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        if out.error is None:
            seen = self.first.setdefault(op.name, out)
            if seen.digest != out.digest:
                out.error = f"output changed on repetition ({seen.digest} -> {out.digest})"
        if out.error is not None:
            self.failures.append(f"{op.name}: {out.error}")
        return dt

    def timed(self, seconds: float) -> dict[str, list[float]]:
        """Closed loop: at least one full round, then operations until time is up."""
        samples: dict[str, list[float]] = {op.name: [] for op in self.workload.ops}
        deadline = time.perf_counter() + seconds
        rounds = 0
        while True:
            for op in self.workload.ops:
                samples[op.name].append(self.call(op))
                if rounds and time.perf_counter() >= deadline:
                    return samples
            rounds += 1
            if time.perf_counter() >= deadline:
                return samples

    def traced_round(self, lib) -> tuple[list[tracing.Span], dict[str, list[float]], float]:
        """One round with every layer wrapped: its spans, op durations and wall time."""
        tracer = tracing.Tracer()
        tracing.install(tracer, lib)
        durations = {}
        t0 = time.perf_counter()
        try:
            with tracer.span("setup"):
                build_scenarios(lib, workloads.SCENARIOS[self.workload.name])
            for op in self.workload.ops:
                with tracer.span(op.span) as span:
                    self.call(op)
                durations[op.name] = [span.duration]
        finally:
            wall = time.perf_counter() - t0
            tracer.restore()
        return tracer.spans, durations, wall

    def peak_mb(self) -> tuple[float, int]:
        """Peak traced heap of the memory operation, in its own untimed pass.

        tracemalloc slows every allocation, so this never overlaps a timed pass.
        One plain call first finishes lazy set-up (imports, caches), which
        the peak should not count, and warms up the timed section.
        """
        op = next(o for o in self.workload.ops if o.name == self.workload.memory_op)
        self.call(op)
        tracemalloc.start()
        try:
            self.call(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1e6, self.first[op.name].peak_slots if op.name in self.first else 0


def upper_quartile(ds: list[float]) -> float:
    """75th percentile of repetition times (inclusive, so within the samples).

    On the shared host the speed of a single operation changes for
    seconds to tens of seconds at a time: mostly up to 1.6x faster, now
    and then up to 3x slower.  How much of a run such phases cover varies
    from run to run.  The upper quartile reads the host's usual speed while
    fast phases cover up to three quarters of the samples, where the
    median already moves once they cover half.
    """
    return statistics.quantiles(ds, n=4, method="inclusive")[2] if len(ds) > 1 else ds[0]


def group_times(ops: list[workloads.Op], samples: dict[str, list[float]]) -> dict[str, float]:
    """Upper-quartile time of each group of operations, over all its samples.

    Operations of one group do the same work on other seeds, so pooling
    them gives each group more samples.
    """
    pooled: dict[str, list[float]] = {}
    for op in ops:
        pooled.setdefault(op.group, []).extend(samples.get(op.name, []))
    return {g: upper_quartile(ds) for g, ds in pooled.items() if ds}


def throughput(ops: list[workloads.Op], samples: dict[str, list[float]],
               first: dict) -> tuple[float, float]:
    """(slots_per_s, round_s) from the upper-quartile time of each group of operations.

    round_s is one round of the workload's operations; slots_per_s divides
    the round's simulated slots by the time of the operations that simulate.
    Per-operation times keep the mix fixed however the time ran out.
    """
    group = group_times(ops, samples)
    times = {op.name: group[op.group] for op in ops if op.group in group}
    sim_ops = [name for name in times if name in first and first[name].slots > 0]
    sim_time = sum(times[n] for n in sim_ops)
    slots = sum(first[n].slots for n in sim_ops)
    return (slots / sim_time if sim_time else 0.0), sum(times.values())


def metadata() -> dict:
    import numpy
    import scipy

    # the ceiling keeps git from reading a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
        commit = commit or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "lyapnet").glob("*.py")))
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": lines}


def digest_mismatches(name: str, seed: int, first: dict) -> list[str]:
    """Operations whose output differs from the digest recorded for the default seed."""
    if seed != DEFAULT_SEED or not BASELINE.exists():
        return []
    recorded = json.loads(BASELINE.read_text(encoding="utf-8"))["digests"].get(name, {})
    return [f"{op}: recorded {recorded[op]}, now {out.digest}" for op, out in first.items()
            if op in recorded and recorded[op] != out.digest]


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns everything the report prints."""
    names = workloads.SCENARIOS[workload_name]
    import_library()  # untimed: bytecode compilation and numpy
    lib, handles, setup = setup_times(names, SETUP_REPS)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK_DIR)
    try:
        workload = workloads.WORKLOADS[workload_name](lib, handles, seed, workdir)
        runner = Runner(workload)
        peak_mb, peak_slots = runner.peak_mb()
        samples = runner.timed(seconds / 2 if trace else seconds)
        slots_per_s, round_s = throughput(workload.ops, samples, runner.first)
        res = {"runner": runner, "samples": samples,
               "e2e": {"setup_s": 0.0, "slots_per_s": slots_per_s, "round_s": round_s,
                       "peak_mb": peak_mb},
               "quality": workload.quality(runner.first)}
        if trace:
            spans, traced, wall = runner.traced_round(lib)
            traced_slots_per_s, traced_round_s = throughput(workload.ops, traced, runner.first)
            layers = tracing.layer_metrics(spans)
            layers["trace.wall_s"] = wall
            for key, name in QUALITY_LAYERS.items():
                layers[name] = res["quality"].get(key, 0.0)
            has_runs = layers["sim.run.slots"] > 0
            layers["sim.run.peak_mb_per_mslot"] = \
                peak_mb / (peak_slots / 1e6) if has_runs and peak_slots else 0.0
            layers["trace.overhead.round_s"] = traced_round_s - round_s
            layers["trace.overhead.slots_per_s"] = traced_slots_per_s - slots_per_s
            res["layers"] = {k: layers[k] for k in tracing.PER_LAYER_UNITS}
            res["spans"] = spans
        # The repetitions span the host's speed phases of the whole run, not
        # only those of its first seconds.  Last, because it replaces lib.
        setup += setup_times(names, SETUP_REPS)[2]
        res["e2e"]["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = res["runner"]

    print(f"workload {args.workload} seed {args.seed}: {runner.attempted} operations, "
          f"{len(runner.failures)} failed")
    print("meta " + json.dumps(metadata(), sort_keys=True))
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for line in digest_mismatches(args.workload, args.seed, runner.first):
        print(f"DIGEST MISMATCH {line}")
    for name, ds in res["samples"].items():
        if ds:
            print(f"op {name}: upper quartile {upper_quartile(ds):.4f} s over {len(ds)} "
                  f"(min {min(ds):.4f}, max {max(ds):.4f})")
    for group, t in group_times(runner.workload.ops, res["samples"]).items():
        print(f"group {group}: upper quartile {t:.4f} s")
    for name, out in runner.first.items():
        print(f"digest {name} {out.digest}")
    for key, value in res["quality"].items():
        print(f"quality {key} = {value:.6g} {tracing.PER_LAYER_UNITS[QUALITY_LAYERS[key]]}")
    for key, value in res["e2e"].items():
        print(f"{key} = {value:.6g} {E2E_UNITS[key]}")

    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        with open(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump([s.__dict__ for s in res["spans"]], fh)
        for key, value in res["layers"].items():
            print(f"layer {key} = {value:.6g} {tracing.PER_LAYER_UNITS[key]}")
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]}
                   for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in res["e2e"].items()}
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
