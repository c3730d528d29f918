"""Smoke test of the benchmark harness at tiny size (about half a minute).

    python3 perfbench/selftest.py

Shrinks every workload, runs each once untraced and once traced through
``run.main``, and checks that: the last output line is the result object;
no operation failed; the metric names and units are exactly those of
BENCHMARK.json; no end-to-end metric is missing or zero; self times sum to
no more than the traced wall.  Finally it checks that a copy holding only
BENCHMARK.json and perfbench/ exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "HEADLINE_SLOTS": 3_000,
    "CLI_SWEEP_SLOTS": 2_000,
    "CLI_TRACE_SLOTS": 6_000,
    "LEARN_K": 2,
    "LEARN_ESTIMATES": 1,
}
SLOW_SEARCHES = "search:five-queue-chain"  # seconds each; left out at tiny size


def shrink() -> None:
    for name, value in TINY.items():
        setattr(workloads, name, value)
    learn = workloads.WORKLOADS["learn"]

    def tiny_learn(*args):
        wl = learn(*args)
        wl.ops = [op for op in wl.ops if not op.name.startswith(SLOW_SEARCHES)]
        return wl

    workloads.WORKLOADS["learn"] = tiny_learn


def result_of(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"{argv}: exit code {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def check(cond: bool, message: str, problems: list[str]) -> None:
    if not cond:
        problems.append(message)


def check_missing_library(problems: list[str]) -> None:
    """A checkout without src/ must exit non-zero and print no result."""
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "headline",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, env=env, capture_output=True, text=True, timeout=120)
        check(proc.returncode != 0, "run without src/ exited 0", problems)
        check('"correct"' not in proc.stdout, "run without src/ printed a result", problems)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    shrink()
    problems: list[str] = []
    for w in bench["workloads"]:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            tag = f"{w['name']} --trace {trace}"
            res = result_of(["--workload", w["name"], "--seed", "0", "--seconds", "0.1",
                             "--trace", str(trace)])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(res)}", problems)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{tag}: {res['failed']} of {res['attempted']} operations failed", problems)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == units, f"{tag}: metric names or units differ from BENCHMARK.json: "
                  f"{sorted(set(got.items()) ^ set(units.items()))}", problems)
            m = {k: v["value"] for k, v in res["metrics"].items()}
            if trace == 0:
                zero = [k for k in units if not m.get(k)]
                check(not zero, f"{tag}: zero or missing end-to-end metrics {zero}", problems)
            else:
                check(m["trace.self_sum_s"] <= m["trace.wall_s"],
                      f"{tag}: self times {m['trace.self_sum_s']} exceed traced wall "
                      f"{m['trace.wall_s']}", problems)
            print(f"ok {tag}" if not problems else f"after {tag}: {len(problems)} problems")
    check_missing_library(problems)
    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
