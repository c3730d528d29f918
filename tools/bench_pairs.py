"""Measure a commit against its parent in alternated benchmark pairs.

    python3 tools/bench_pairs.py stream-means --seeds 401-410

Exports the parent (``--base``, default ``HEAD^``) and ``HEAD`` as clean
trees of their committed files (``git archive``), then for every workload
in BENCHMARK.json and every seed runs ``perfbench/run.py --workload W
--seed S --seconds N --trace 0`` once in each tree, the two sides taking
turns at running first.  N is BENCHMARK.json's ``run_seconds``.  The last
line each run prints goes into ``BENCH_main-<base sha>.json`` and
``BENCH_<label>.json`` at the repository root, with the tree's
``src/lyapnet/*.py`` line count (``src_lines``), and a table of medians,
parent quartiles, pair wins and a verdict (gain, worse, unresolved or
within bound; see ``verdict``) per workload and metric is printed after
both line counts.  The exported trees are deleted afterwards, also when
a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ("python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
           "run from a clean export of the commit's files; result is the last line it prints")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    """Write the files committed at ``sha`` into ``dest``."""
    dest.mkdir()
    with subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if proc.returncode:
        raise RuntimeError(f"git archive {sha} exited with {proc.returncode}")
    return dest


def src_lines(tree: Path) -> int:
    """Lines of ``src/lyapnet/*.py`` under ``tree``, counted as ``wc -l`` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (tree / "src" / "lyapnet").glob("*.py"))


def parse_seeds(text: str) -> list[int]:
    """'401-410' or '3,5,8' (or a mix) -> the listed seeds, in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def machine() -> str:
    import numpy

    return (f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], head: list[float], better: str, bound: float,
            more_failed: bool = False) -> str:
    """Judge paired runs of one metric against BENCHMARK.json's ``better`` and ``bound``.

    ``more failures``: the change failed a larger share of its operations
    than the parent (``more_failed``), so none of its metrics counts as a
    gain.  ``gain``: the change is better in at least 9/10 of the pairs and
    its median differs from the parent's by more than the parent's
    interquartile spread.  ``worse``: the change's median is worse than the
    parent's by more than ``bound`` (a fraction of the parent's median).
    ``unresolved``: the parent's spread is wider than ``bound`` and not
    every change run beats every parent run.  ``within bound``: the rest.
    """
    if more_failed:
        return "more failures"
    sign = 1.0 if better == "higher" else -1.0
    q1, med_b, q3 = quartiles(base)
    gain = sign * (statistics.median(head) - med_b)
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    if wins >= 0.9 * len(base) and gain > q3 - q1:
        return "gain"
    if gain < -bound * abs(med_b):
        return "worse"
    if q3 - q1 > bound * abs(med_b) and not all(sign * (y - x) > 0 for x in base for y in head):
        return "unresolved"
    return "within bound"


def summarize(base_runs: list[dict], head_runs: list[dict], metrics: list[dict]) -> list[str]:
    """One line per workload and metric: medians, parent quartiles, change
    wins per pair and the verdict."""
    lines = []
    workloads = list(dict.fromkeys(r["workload"] for r in base_runs))
    for w in workloads:
        pairs = [(b["result"], h["result"]) for b, h in zip(base_runs, head_runs)
                 if b["workload"] == w]
        failed = (sum(b["failed"] for b, _ in pairs), sum(h["failed"] for _, h in pairs))
        attempted = (sum(b["attempted"] for b, _ in pairs), sum(h["attempted"] for _, h in pairs))
        more_failed = failed[1] * attempted[0] > failed[0] * attempted[1]  # shares, no division
        lines.append(f"{w}: {len(pairs)} pairs, failed parent/change {failed[0]}/{failed[1]}")
        for m in metrics:
            name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
            b = [p[0]["metrics"][name]["value"] for p in pairs]
            h = [p[1]["metrics"][name]["value"] for p in pairs]
            q1, med_b, q3 = quartiles(b)
            med_h = statistics.median(h)
            wins = sum(sign * (y - x) > 0 for x, y in zip(b, h))
            lines.append(f"  {name:<12} parent {med_b:.6g} (quartiles {q1:.6g}-{q3:.6g}) "
                         f"change {med_h:.6g} ({(med_h - med_b) / med_b:+.1%}), "
                         f"change better in {wins}/{len(pairs)} pairs: "
                         f"{verdict(b, h, m['better'], m['bound'], more_failed)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="name of the change; writes BENCH_<label>.json")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="one pair per seed and workload, e.g. 401-410")
    parser.add_argument("--base", default="HEAD^", help="commit to measure against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    base, head = git("rev-parse", args.base), git("rev-parse", "HEAD")
    sides = {"base": (f"main-{base[:7]}", base), "head": (args.label, head)}
    runs = {"base": [], "head": []}
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: export(sha, scratch / side) for side, (_, sha) in sides.items()}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        k = 0
        for w in [wl["name"] for wl in spec["workloads"]]:
            for seed in args.seeds:
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                k += 1
                for pos, side in enumerate(order):
                    label, sha = sides[side]
                    result = bench_once(trees[side], w, seed, seconds)
                    runs[side].append({"label": label, "commit": sha, "workload": w,
                                       "seed": seed, "seconds": seconds, "trace": 0,
                                       "ran": ("first", "second")[pos], "result": result})
                    print(f"{w} seed {seed} {label}: "
                          + ", ".join(f"{n} {v['value']:.6g}"
                                      for n, v in result["metrics"].items()), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for side, other in (("base", "head"), ("head", "base")):
        label, sha = sides[side]
        doc = {"label": label, "commit": sha, "harness": HARNESS.format(seconds=seconds),
               "machine": machine(), "src_lines": lines[side],
               "pairing": (f"each run was paired with the run of the same workload, seed and "
                           f"--trace in BENCH_{sides[other][0]}.json; the two sides alternated "
                           "which ran first (field ran)"),
               "runs": runs[side]}
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    print(f"src/lyapnet/*.py lines: parent {lines['base']}, change {lines['head']} "
          f"({lines['head'] - lines['base']:+d})")
    print("\n".join(summarize(runs["base"], runs["head"], spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
