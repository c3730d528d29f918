"""The verdicts of tools/bench_pairs.py on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "slots_per_s", "better": "higher", "bound": 0.24},
           {"name": "peak_mb", "better": "lower", "bound": 0.1}]
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 103.0, 97.0, 100.0]


def runs(workload, slots_per_s, peak_mb, failed=0):
    return [{"workload": workload,
             "result": {"attempted": 100, "failed": failed,
                        "metrics": {"slots_per_s": {"value": s},
                                                      "peak_mb": {"value": p}}}}
            for s, p in zip(slots_per_s, peak_mb)]


@pytest.mark.parametrize("head,better,bound,want", [
    ([v * 1.4 for v in PARENT], "higher", 0.24, "gain"),
    ([v * 0.7 for v in PARENT], "higher", 0.24, "worse"),
    ([v * 1.01 for v in PARENT], "higher", 0.24, "within bound"),
    ([v * 1.4 for v in PARENT[:9]] + [v * 0.9 for v in PARENT[9:]], "higher", 0.24, "gain"),
    ([v * 1.4 for v in PARENT[:8]] + [v * 0.9 for v in PARENT[8:]], "higher", 0.24,
     "within bound"),
    ([v * 0.8 for v in PARENT], "lower", 0.1, "gain"),
    ([v * 1.2 for v in PARENT], "lower", 0.1, "worse"),
])
def test_verdict_cases(head, better, bound, want):
    assert bench_pairs.verdict(PARENT, head, better, bound) == want


def test_wide_parent_spread_is_unresolved_unless_every_run_wins():
    parent = [60.0, 80.0, 100.0, 120.0, 140.0, 60.0, 80.0, 100.0, 120.0, 140.0]
    # the change is a little better in most pairs, far from a gain
    head = [v * 1.05 for v in parent[:6]] + [v * 0.98 for v in parent[6:]]
    assert bench_pairs.verdict(parent, head, "higher", 0.24) == "unresolved"
    # every change run above every parent run: resolved even with that spread
    assert bench_pairs.verdict(parent, [150.0 + k for k in range(10)], "higher",
                               0.24) == "gain"


def test_summarize_prints_a_verdict_per_workload_and_metric():
    base = runs("headline", PARENT, [0.5] * 10) + runs("learn", PARENT, [0.2] * 10)
    head = runs("headline", [v * 1.4 for v in PARENT], [0.45] * 10) + runs("learn", PARENT,
                                                                            [0.2] * 10)
    lines = bench_pairs.summarize(base, head, METRICS)
    assert lines[0] == "headline: 10 pairs, failed parent/change 0/0"
    assert lines[1].startswith("  slots_per_s") and lines[1].endswith(
        "change better in 10/10 pairs: gain")
    assert lines[2].startswith("  peak_mb") and lines[2].endswith(
        "change better in 10/10 pairs: gain")
    assert lines[3] == "learn: 10 pairs, failed parent/change 0/0"
    assert lines[4].endswith("change better in 0/10 pairs: within bound")
    assert lines[5].endswith("change better in 0/10 pairs: within bound")


def test_summarize_gives_no_gain_to_a_change_that_fails_more_operations():
    base = runs("headline", PARENT, [0.5] * 10, failed=1)
    head = runs("headline", [v * 1.4 for v in PARENT], [0.45] * 10, failed=2)
    lines = bench_pairs.summarize(base, head, METRICS)
    assert lines[0] == "headline: 10 pairs, failed parent/change 10/20"
    assert lines[1].endswith("change better in 10/10 pairs: more failures")
    assert lines[2].endswith("change better in 10/10 pairs: more failures")
    # the same share of failed operations leaves the verdicts alone
    lines = bench_pairs.summarize(base, runs("headline", [v * 1.4 for v in PARENT],
                                             [0.45] * 10, failed=1), METRICS)
    assert lines[1].endswith(": gain") and lines[2].endswith(": gain")


def test_src_lines_counts_the_package_modules_like_wc(tmp_path):
    pkg = tmp_path / "src" / "lyapnet"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline, so wc -l counts 0
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "setup.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 3
