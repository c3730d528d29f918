"""End-to-end checks of the command-line front end.

Everything goes through ``lyapnet.cli.main`` in-process: exit codes, printed
summaries, and the CSV/SVG files each subcommand writes.  The one subprocess
is a fresh interpreter that checks what ``import lyapnet.cli`` loads.
"""

import gc
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from lyapnet import _svg, cli, scenarios
from lyapnet import sim as simulation
from lyapnet.cli import main
from lyapnet.dual import ConvergenceError, evaluate_dual
from lyapnet.model import ValidationError, spec_to_dict


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _field(out, key):
    """Pull `key=value` out of a run summary line."""
    for token in out.split():
        if token.startswith(key + "="):
            return token[len(key) + 1:]
    raise AssertionError(f"{key}= not found in {out!r}")


# -- run ---------------------------------------------------------------------


def test_run_writes_summary_trace_and_report(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.csv"
    code = main(["run", "--scenario", "two-queue", "--V", "50", "--slots", "2000",
                 "--seed", "3", "--check-invariants",
                 "--trace", str(trace), "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("two-queue qla V=50 seed=3:")
    assert "avg_cost=" in out and "drop_fraction=0" in out
    # qla summary carries no virtual-queue average
    assert "avg_virtual_total" not in out
    tlines = _lines(trace)
    assert len(tlines) == 2001
    assert tlines[0].split(",")[:3] == ["slot", "state", "cost"]
    rlines = _lines(report)
    assert len(rlines) == 2
    assert rlines[0].startswith("scenario,algorithm,V,seed,stream,slots,burn_in,")
    assert rlines[1].split(",")[:4] == ["two-queue", "qla", "50", "3"]


def test_run_summary_matches_library(capsys):
    code = main(["run", "--scenario", "two-queue", "--V", "50",
                 "--slots", "2000", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    rep = simulation.run(simulation.RunConfig(
        scenario=scenarios.by_name("two-queue"), V=50.0, algorithm="qla",
        slots=2000, seed=3))
    assert float(_field(out, "avg_cost")) == pytest.approx(rep.avg_cost, rel=1e-11)
    assert float(_field(out, "avg_backlog_total")) == pytest.approx(
        rep.avg_backlog_total, rel=1e-11)


def test_run_fqla_summary_has_virtual_average(capsys):
    code = main(["run", "--scenario", "two-queue", "--alg",
                 "fqla-ideal", "--V", "20", "--slots", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "avg_virtual_total=" in out


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "two-queue"],                       # missing --V
    ["run", "--scenario", "no-such-net", "--V", "10"],        # unknown name
    ["run", "--scenario", "two-queue", "--file", "x.json", "--V", "10"],
    ["run", "--V", "10"],                                     # no scenario
    ["run", "--scenario", "five-queue-chain", "--V", "10",
     "--slots", "500", "--placeholders", "1,2"],              # wrong arity
])
def test_run_flag_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,field", [
    (["run", "--scenario", "two-queue", "--V", "-5"], "V"),
    (["run", "--scenario", "two-queue", "--V", "10", "--slots", "0"], "slots"),
    (["run", "--scenario", "two-queue", "--V", "10", "--slots", "100", "--burn-in", "200"],
     "burn_in"),
    (["dual", "--scenario", "two-queue", "--V", "-1", "--find-opt"], "V"),
    (["run", "--scenario", "two-queue", "--V", "10", "--alg", "qla", "--general-T", "10"],
     "general_T"),
    (["sweep", "--scenario", "two-queue", "--V-list", "10,20", "--seeds", "0,1", "--alg", "qla",
      "--general-K", "3", "--report", "r.csv"], "general_K"),
])
def test_values_the_library_rejects_exit_2_naming_the_field(argv, field, tmp_path, monkeypatch,
                                                            capsys):
    """Each exits 2 before writing anything; the sweep checks its flags
    once, before any cell runs."""
    def no_cell(*args, **kwargs):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "_sweep_worker", no_cell)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not os.listdir(tmp_path)


# RunConfig fields behind the flags that run and sweep share
_RUN_FLAG_FIELDS = {"algorithm", "slots", "stream", "burn_in", "general_T", "general_K",
                    "bisect_T1", "bisect_guess"}


@pytest.mark.parametrize("argv,given", [
    (["run", "--scenario", "two-queue", "--V", "1"], {}),
    (["sweep", "--scenario", "two-queue", "--V-list", "1"], {}),
    (["run", "--scenario", "two-queue", "--V", "1", "--slots", "1000", "--alg", "fqla-general",
      "--general-K", "3"], {"algorithm": "fqla-general", "slots": 1000, "general_K": 3}),
], ids=["run", "sweep", "run-given-flags"])
def test_run_defaults_come_from_run_config(argv, given, tmp_path, monkeypatch, capsys):
    """The CLI passes RunConfig only the run flags it was given; a one-cell
    sweep builds two configs, as it checks its flags on the first cell's
    before any cell runs."""
    calls = []

    def recording(*args, real=simulation.RunConfig, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulation, "RunConfig", recording)
    argv = argv + (["--report", str(tmp_path / "r.csv")] if argv[0] == "sweep" else [])
    assert main(argv) == 0
    capsys.readouterr()
    n = 2 if argv[0] == "sweep" else 1
    assert [{k: v for k, v in kw.items() if k in _RUN_FLAG_FIELDS} for kw in calls] == [given] * n
    assert "check_invariants" not in calls[0]


def test_run_missing_scenario_file_exits_1(tmp_path, capsys):
    code = main(["run", "--file", str(tmp_path / "absent.json"), "--V", "10"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_run_malformed_scenario_file_exits_2_naming_the_entry(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["run", "--file", str(path), "--V", "10"]) == 2
    assert capsys.readouterr().err == "error: $: expected an object, got list\n"


def test_env_seed_sets_default(monkeypatch, capsys):
    monkeypatch.setenv("LYAPNET_SEED", "7")
    code = main(["run", "--scenario", "two-queue", "--V", "10", "--slots", "300"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed=7:" in out


def test_env_seed_non_integer_warns_and_falls_back(monkeypatch, capsys):
    monkeypatch.setenv("LYAPNET_SEED", "lots")
    code = main(["run", "--scenario", "two-queue", "--V", "10", "--slots", "300"])
    captured = capsys.readouterr()
    assert code == 0
    assert "seed=0:" in captured.out
    assert "LYAPNET_SEED" in captured.err


def test_env_seed_is_read_by_run_only(monkeypatch, tmp_path, capsys):
    """Other subcommands never read LYAPNET_SEED, nor does run given --seed."""
    monkeypatch.setenv("LYAPNET_SEED", "lots")
    assert main(["export-scenario", "--scenario", "two-queue",
                 "--out", str(tmp_path / "x.json")]) == 0
    assert main(["run", "--scenario", "two-queue", "--V", "10", "--slots", "300",
                 "--seed", "4"]) == 0
    captured = capsys.readouterr()
    assert "seed=4:" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", "two-queue", "--V-list", "20", "--slots", "300", "--report", "r.csv"],
    ["dual", "--scenario", "two-queue", "--V", "40", "--at", "1,2"],
    ["analyze", "--scenario", "two-queue", "--V", "40", "--trace", "t.csv", "--mode", "tail"],
    ["export-scenario", "--scenario", "two-queue", "--out", "x.json"],
], ids=lambda argv: argv[0])
def test_only_run_takes_seed(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--seed", "3"]) == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "two-queue", "--V", "10", "--slots", "300"],
    ["dual", "--scenario", "two-queue", "--V", "40", "--at", "1,2"],
], ids=lambda argv: argv[0])
def test_repeated_main_call_leaves_no_reference_cycles(argv, capsys):
    """The parser is built once per process; a later call leaves nothing
    for the cyclic collector (an argparse build leaves a few hundred objects)."""
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_no_command_prints_help_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out.lower() or True


# -- dual --------------------------------------------------------------------


def test_dual_at_matches_library(capsys):
    code = main(["dual", "--scenario", "two-queue", "--V", "40",
                 "--at", "30,10"])
    out = capsys.readouterr().out
    assert code == 0
    spec = scenarios.by_name("two-queue").spec
    ev = evaluate_dual(spec, 40.0, np.array([30.0, 10.0]))
    q_line = next(l for l in out.splitlines() if l.startswith("q(U)"))
    assert float(q_line.split("=")[1]) == pytest.approx(ev.value, rel=1e-11)
    g_line = next(l for l in out.splitlines() if l.startswith("G(U)"))
    got = [float(p) for p in g_line.split("= (")[1].rstrip(")").split(",")]
    np.testing.assert_allclose(got, ev.subgradient, rtol=1e-11, atol=1e-12)
    assert "argmin actions:" in out


def test_dual_at_out_writes_the_printed_row(tmp_path, capsys):
    out_csv = tmp_path / "at.csv"
    assert main(["dual", "--scenario", "two-queue", "--V", "40", "--at", "30,10",
                 "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    q = next(l for l in out.splitlines() if l.startswith("q(U)")).split(" = ")[1]
    g = next(l for l in out.splitlines() if l.startswith("G(U)")).split(" = ")[1]
    assert _lines(out_csv) == ["U_1,U_2,q,G_1,G_2", ",".join(["30", "10", q, *g[1:-1].split(", ")])]
    assert f"wrote {out_csv}" in out


@pytest.mark.parametrize("argv", [
    ["dual", "--scenario", "two-queue", "--V", "40", "--at", "1,2,3"],
    ["dual", "--scenario", "two-queue", "--V", "40"],          # no mode
    ["dual", "--scenario", "two-queue", "--V", "40",
     "--at", "1,2", "--find-opt"],                             # two modes
    ["dual", "--scenario", "five-queue-chain", "--V", "40",
     "--scan", "0", "10", "5"],                                # r > 2
    ["dual", "--scenario", "two-queue", "--V", "40",
     "--scan", "10", "5", "4"],                                # hi <= lo
    ["dual", "--scenario", "two-queue", "--V", "40",
     "--scan", "0", "10", "1"],                                # too few steps
    ["dual", "--scenario", "two-queue", "--V", "40",
     "--scan", "0", "10", "2.5"],                              # STEPS not an integer
    ["dual", "--scenario", "two-queue", "--V", "40",
     "--scan", "0", "10", "inf"],                              # STEPS infinite
    ["dual", "--scenario", "two-queue", "--V", "40",
     "--scan", "0", "inf", "3"],                               # HI infinite
    ["dual", "--scenario", "two-queue", "--V", "40",
     "--scan", "nan", "5", "3"],                               # LO not a number
    ["dual", "--scenario", "two-queue", "--V", "40",
     "--scan", "-10", "-5", "3"],                              # no nonnegative part
    ["dual", "--scenario", "two-queue", "--V", "40",
     "--scan", "-5", "0", "3"],                                # only u = 0
    ["dual", "--scenario", "two-queue", "--V", "40",
     "--scan", "0", "10", "1e9"],                              # 1e18 grid points
    ["dual", "--scenario", "single-queue-discrete", "--V", "40",
     "--scan", "0", "10", "100001"],                           # one point too many
])
def test_dual_flag_errors_exit_2(argv, capsys, monkeypatch):
    """Bad flags exit 2; a bad --scan is named, before any grid is allocated."""
    def no_grid(*args, **kwargs):
        raise AssertionError("the scan grid was allocated")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--scan" in err or "--scan" not in argv


@pytest.mark.parametrize("modes,text", [
    ([], "one of the arguments --at --find-opt --scan is required"),
    (["--at", "1,2", "--find-opt"], "argument --find-opt: not allowed with argument --at"),
], ids=["no-mode", "two-modes"])
def test_dual_takes_exactly_one_mode(modes, text, capsys):
    assert main(["dual", "--scenario", "two-queue", "--V", "40"] + modes) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"error: {text}")


@pytest.mark.parametrize("steps,code", [("4", 0), ("5", 2)])
def test_dual_scan_grid_limit_counts_every_point(steps, code, monkeypatch, capsys):
    """STEPS^r is what is capped: with the limit at 16, a 4 x 4 grid on two
    queues runs and a 5 x 5 one is rejected."""
    monkeypatch.setattr(cli, "_SCAN_POINTS", 16)
    assert main(["dual", "--scenario", "two-queue", "--V", "40",
                 "--scan", "0", "10", steps]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.count("\n") == 17  # the header and 16 points
    else:
        assert "at most 16 grid points" in err


def test_dual_find_opt_closed_form(capsys):
    code = main(["dual", "--scenario", "five-queue-chain", "--V", "50",
                 "--find-opt", "--method", "closed-form"])
    out = capsys.readouterr().out
    assert code == 0
    handle = scenarios.by_name("five-queue-chain")
    line = next(l for l in out.splitlines() if l.startswith("U*_V"))
    got = [float(p) for p in line.split("(")[1].rstrip(")").split(",")]
    np.testing.assert_allclose(got, handle.u_star(50.0), rtol=1e-11)
    assert "method = closed-form" in out
    assert "probe_ok = True" in out


def test_dual_scan_writes_grid(tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    code = main(["dual", "--scenario", "single-queue-continuous", "--V", "30",
                 "--scan", "0", "60", "7", "--out", str(out_csv)])
    capsys.readouterr()
    assert code == 0
    lines = _lines(out_csv)
    assert lines[0] == "U_1,q,G_1"
    assert len(lines) == 8
    spec = scenarios.by_name("single-queue-continuous").spec
    for line in lines[1:]:
        u, q, g = (float(p) for p in line.split(","))
        ev = evaluate_dual(spec, 30.0, np.array([u]))
        assert q == pytest.approx(ev.value, rel=1e-11)
        assert g == pytest.approx(ev.subgradient[0], rel=1e-11, abs=1e-12)


def test_dual_scan_without_out_prints_csv(capsys):
    code = main(["dual", "--scenario", "single-queue-discrete", "--V", "10",
                 "--scan", "0", "20", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "U_1,q,G_1"
    assert len(out.splitlines()) == 4


# -- analyze -----------------------------------------------------------------


@pytest.fixture(scope="module")
def fqla_trace(tmp_path_factory):
    """Five-queue FQLA trace reused by the tail and sandwich tests."""
    path = tmp_path_factory.mktemp("cli") / "fqla.csv"
    code = main(["run", "--scenario", "five-queue-chain", "--alg",
                 "fqla-ideal", "--V", "100", "--slots", "8000",
                 "--seed", "0", "--trace", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def single_queue_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "qla1.csv"
    code = main(["run", "--scenario", "single-queue-continuous", "--V", "20",
                 "--slots", "4000", "--seed", "0", "--trace", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def long_fqla_trace(tmp_path_factory, long_fqla_report):
    """A trace longer than one block of the trace writer."""
    path = tmp_path_factory.mktemp("cli") / "long_fqla.csv"
    simulation.write_trace_csv(long_fqla_report, str(path))
    return path


@pytest.mark.parametrize("trace", ["fqla_trace", "single_queue_trace", "long_fqla_trace"])
def test_read_trace_parses_every_field_bit_for_bit(trace, request):
    """The parse equals float() of every U and W field, with W columns
    (FQLA) and with empty ones (QLA)."""
    from lyapnet.cli import _read_trace

    path = request.getfixturevalue(trace)
    lines = _lines(path)
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    u_cols = [j for j, c in enumerate(header) if c.startswith("U_")]
    w_cols = [j for j, c in enumerate(header) if c.startswith("W_")]
    want_u = np.array([[float(row[j]) for j in u_cols] for row in rows])
    u, w = _read_trace(str(path))
    assert u.dtype == want_u.dtype and u.shape == want_u.shape
    assert u.tobytes() == want_u.tobytes()
    if trace != "single_queue_trace":
        want_w = np.array([[float(row[j]) for j in w_cols] for row in rows])
        assert w.dtype == want_w.dtype and w.shape == want_w.shape
        assert w.tobytes() == want_w.tobytes()
    else:
        assert rows[0][w_cols[0]] == "" and w is None


def test_analyze_tail_curve_fit_and_plot(fqla_trace, tmp_path, capsys):
    curve_csv = tmp_path / "curve.csv"
    plot = tmp_path / "tail.svg"
    code = main(["analyze", "--scenario", "five-queue-chain", "--V", "100",
                 "--trace", str(fqla_trace), "--mode", "tail",
                 "--out", str(curve_csv), "--plot", str(plot)])
    out = capsys.readouterr().out
    assert code == 0
    assert "beta_hat" in out and "c_hat" in out
    lines = _lines(curve_csv)
    assert lines[0] == "m,p"
    assert len(lines) >= 3
    text = plot.read_text(encoding="utf-8")
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "five-queue-chain V=100" in text


def test_analyze_sandwich_clean_trace(fqla_trace, capsys):
    code = main(["analyze", "--scenario", "five-queue-chain", "--V", "100",
                 "--trace", str(fqla_trace), "--mode", "sandwich"])
    out = capsys.readouterr().out
    assert code == 0
    assert "violations: 0" in out


def test_analyze_sandwich_wrong_placeholders_fails(fqla_trace, capsys):
    code = main(["analyze", "--scenario", "five-queue-chain", "--V", "100",
                 "--trace", str(fqla_trace), "--mode", "sandwich",
                 "--placeholders", "0,0,0,0,0"])
    out = capsys.readouterr().out
    assert code == 1
    violations = int(out.splitlines()[-1].split(":")[1])
    assert violations > 0


def test_analyze_sandwich_needs_w_columns(single_queue_trace, capsys):
    code = main(["analyze", "--scenario", "single-queue-continuous", "--V", "20",
                 "--trace", str(single_queue_trace), "--mode", "sandwich"])
    assert code == 2
    capsys.readouterr()


def test_analyze_sandwich_tolerates_csv_rounding(tmp_path, capsys):
    """At V=1000 the trace's 12-digit rounding exceeds 1e-9; a clean run stays clean."""
    trace = tmp_path / "t.csv"
    assert main(["run", "--scenario", "single-queue-continuous", "--alg",
                 "fqla-ideal", "--V", "1000", "--slots", "20000", "--seed", "0",
                 "--trace", str(trace)]) == 0
    code = main(["analyze", "--scenario", "single-queue-continuous", "--V", "1000",
                 "--trace", str(trace), "--mode", "sandwich"])
    out = capsys.readouterr().out
    assert code == 0
    assert "violations: 0" in out


def test_analyze_absorption_single_queue(single_queue_trace, capsys):
    code = main(["analyze", "--scenario", "single-queue-continuous", "--V", "20",
                 "--trace", str(single_queue_trace), "--mode", "absorption"])
    out = capsys.readouterr().out
    assert code == 0
    assert "entered at t0=" in out
    assert "never left" in out


def test_analyze_absorption_never_entered_exits_1(tmp_path, capsys):
    """A 50-slot run at V=1000 climbs by at most B = 1 packet per slot, far
    short of the interval's lower end."""
    trace = tmp_path / "short.csv"
    assert main(["run", "--scenario", "single-queue-discrete", "--V", "1000", "--slots", "50",
                 "--seed", "0", "--trace", str(trace)]) == 0
    capsys.readouterr()
    code = main(["analyze", "--scenario", "single-queue-discrete", "--V", "1000",
                 "--trace", str(trace), "--mode", "absorption"])
    assert code == 1
    assert capsys.readouterr().out == ("interval = [1135.10166675, inf]\n"
                                       "never entered the interval\n")


def test_analyze_absorption_counts_each_row_once(tmp_path, capsys):
    """The interval is [21.72..., inf) at V=20; the only row outside it
    after entry is the last, so one violation (the last row once, not
    also as the final backlog)."""
    path = tmp_path / "crafted.csv"
    rows = [f"{t},0,0,{u},,0" for t, u in enumerate([0.0, 30.0, 31.0, 30.0, 5.0])]
    path.write_text("slot,state,cost,U_1,W_1,dropped_this_slot\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    code = main(["analyze", "--scenario", "single-queue-discrete", "--V", "20",
                 "--trace", str(path), "--mode", "absorption"])
    out = capsys.readouterr().out
    assert code == 1
    assert "entered at t0=1, violations: 1" in out


def test_analyze_absorption_rejects_multi_queue(fqla_trace, capsys):
    code = main(["analyze", "--scenario", "five-queue-chain", "--V", "100",
                 "--trace", str(fqla_trace), "--mode", "absorption"])
    assert code == 2
    capsys.readouterr()


def test_analyze_tail_file_scenario_needs_reference(fqla_trace, tmp_path, capsys):
    # a scenario loaded from JSON has no attached optimum, so tail mode
    # requires an explicit reference point
    exported = tmp_path / "five.json"
    assert main(["export-scenario", "--scenario", "five-queue-chain",
                 "--out", str(exported)]) == 0
    base = ["analyze", "--file", str(exported), "--V", "100",
            "--trace", str(fqla_trace), "--mode", "tail"]
    assert main(base) == 2
    ref = ",".join(str(x) for x in scenarios.by_name("five-queue-chain").u_star(100.0))
    assert main(base + ["--reference", ref]) == 0
    capsys.readouterr()


def test_analyze_bad_burn_in_exits_2(fqla_trace, capsys):
    code = main(["analyze", "--scenario", "five-queue-chain", "--V", "100",
                 "--trace", str(fqla_trace), "--mode", "tail",
                 "--burn-in", "8000"])
    assert code == 2
    capsys.readouterr()


def test_analyze_empty_trace_exits_2(tmp_path, capsys):
    stub = tmp_path / "empty.csv"
    stub.write_text("slot,state,cost,U_1,dropped_this_slot\n", encoding="utf-8")
    code = main(["analyze", "--scenario", "single-queue-continuous", "--V", "10",
                 "--trace", str(stub), "--mode", "tail"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {stub}: trace file has no data rows\n"


TRACE_HEAD = "slot,state,cost,U_1,W_1,dropped_this_slot\n0,0,0,1.5,,0\n"


@pytest.mark.parametrize("text,why", [
    ("", "no data rows"),
    (TRACE_HEAD + "1,1,0,abc,,0\n", "could not convert string 'abc'"),
    (TRACE_HEAD.replace(",,", ",2.5,") + "1,1,0,1.5,x,0\n", "could not convert string 'x'"),
    (TRACE_HEAD + "1,1,0,", "could not convert string ''"),
    (TRACE_HEAD + "1,1,0", "invalid column index"),
    (TRACE_HEAD + "1,1,0,2.5", "invalid column index"),
], ids=["zero-bytes", "non-numeric", "non-numeric-w", "truncated-field", "truncated-row",
        "cut-after-u"])
def test_analyze_malformed_trace_exits_2_naming_the_file(text, why, tmp_path, capsys):
    stub = tmp_path / "bad.csv"
    stub.write_text(text, encoding="utf-8")
    code = main(["analyze", "--scenario", "single-queue-continuous", "--V", "10",
                 "--trace", str(stub), "--mode", "tail"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {stub}: ") and why in err


@pytest.mark.parametrize("header", ["slot,cost,U_1", "slot,state,cost,W_1"])
def test_analyze_rejects_csv_without_trace_header(header, tmp_path, capsys):
    stub = tmp_path / "other.csv"
    stub.write_text(f"{header}\n0,1,2.5\n", encoding="utf-8")
    code = main(["analyze", "--scenario", "single-queue-continuous", "--V", "10",
                 "--trace", str(stub), "--mode", "tail"])
    assert code == 2
    assert "not a trace CSV" in capsys.readouterr().err


@pytest.mark.parametrize("error,code", [
    (cli.UsageError("bad flag"), 2),
    (ValidationError("states[0].p", "must be positive"), 2),
    (ConvergenceError("search did not converge"), 1),
    (simulation.SimInvariantError("backlog went negative", 3, 0, [-1.0]), 1),
    (simulation.TailFitError("insufficient tail mass"), 1),
    (ValueError("bad value"), 1),
    (OSError("disk full"), 1),
], ids=lambda x: type(x).__name__ if isinstance(x, Exception) else str(x))
def test_subcommand_errors_map_to_exit_codes(error, code, tmp_path, monkeypatch, capsys):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_export_scenario", fail)
    assert main(["export-scenario", "--scenario", "two-queue",
                 "--out", str(tmp_path / "x.json")]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_analyze_missing_trace_exits_1(tmp_path, capsys):
    code = main(["analyze", "--scenario", "single-queue-continuous", "--V", "10",
                 "--trace", str(tmp_path / "gone.csv"), "--mode", "tail"])
    assert code == 1
    capsys.readouterr()


# -- export-scenario ---------------------------------------------------------


def test_export_scenario_round_trip(tmp_path, capsys):
    out_json = tmp_path / "five.json"
    code = main(["export-scenario", "--scenario", "five-queue-chain",
                 "--out", str(out_json)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote five-queue-chain" in out
    loaded = scenarios.load_from_file(str(out_json))
    builtin = scenarios.by_name("five-queue-chain")
    assert spec_to_dict(loaded.spec) == spec_to_dict(builtin.spec)
    # the exported file drives a run just like the built-in
    code = main(["run", "--file", str(out_json), "--V", "20", "--slots", "500"])
    assert code == 0
    capsys.readouterr()


def test_run_file_scenario_fqla_falls_back_to_numeric(tmp_path, capsys):
    # without a closed form the placeholder levels come from the numeric
    # multiplier search, with a warning
    out_json = tmp_path / "five.json"
    assert main(["export-scenario", "--scenario", "five-queue-chain",
                 "--out", str(out_json)]) == 0
    with pytest.warns(UserWarning, match="numeric"):
        code = main(["run", "--file", str(out_json), "--alg", "fqla-ideal",
                     "--V", "20", "--slots", "500"])
    out = capsys.readouterr().out
    assert code == 0
    assert "avg_virtual_total=" in out


def _one_state_file(tmp_path, actions):
    """A one-queue, one-state scenario file with the given (cost, arrival, service) actions."""
    path = tmp_path / "one-state.json"
    path.write_text(json.dumps({"name": "one-state", "r": 1, "delta_max": 1.0, "states": [
        {"prob": 1.0, "actions": [{"cost": c, "arrivals": [a], "services": [b]}
                                  for c, a, b in actions]}]}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [["run", "--alg", "qla", "--slots", "100"],
                                  ["run", "--alg", "fqla-ideal", "--slots", "100"],
                                  ["dual", "--find-opt"], ["dual", "--at", "5"],
                                  ["dual", "--scan", "0", "10", "3"]],
                         ids=["qla", "fqla-ideal", "dual", "dual-at", "dual-scan"])
def test_overflowing_v_cost_exits_2_naming_v_and_the_cost(argv, tmp_path, capsys):
    path = _one_state_file(tmp_path, [(0.0, 1.0, 0.0), (1e308, 0.0, 1.0)])
    assert main(argv + ["--file", path, "--V", "100"]) == 2
    assert capsys.readouterr().err == ("error: states[0].actions[1].cost: V * cost is not "
                                       "finite at V=100.0 (cost 1e+308)\n")


@pytest.mark.parametrize("argv", [["run", "--alg", "fqla-ideal", "--slots", "100"],
                                  ["dual", "--find-opt"]], ids=["fqla-ideal", "dual"])
def test_unbounded_dual_exits_1_with_the_slackness_margin(argv, tmp_path, capsys):
    """One action that only arrives: no multiplier stabilizes the queue."""
    path = _one_state_file(tmp_path, [(0.0, 1.0, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # run's fallback to the numeric search warns
        assert main(argv + ["--file", path, "--V", "100"]) == 1
    assert capsys.readouterr().err == (
        "error: dual LP for 'one-state' at V=100.0 is unbounded: no multiplier stabilizes "
        "the queues (check_slackness margin -1)\n")


# -- sweep -------------------------------------------------------------------

SWEEP_ARGS = ["sweep", "--scenario", "two-queue", "--V-list", "20,40",
              "--seeds", "0,1", "--slots", "1500"]


def test_sweep_grid_report_and_charts(tmp_path, capsys):
    report = tmp_path / "grid.csv"
    backlog_svg = tmp_path / "backlog.svg"
    drops_svg = tmp_path / "drops.svg"
    code = main(SWEEP_ARGS + ["--report", str(report),
                              "--plot-backlog", str(backlog_svg),
                              "--plot-drops", str(drops_svg)])
    out = capsys.readouterr().out
    assert code == 0
    summaries = [l for l in out.splitlines() if l.startswith("two-queue qla")]
    assert len(summaries) == 4
    assert "wrote 4 rows" in out
    lines = _lines(report)
    assert len(lines) == 5
    vs = sorted(float(l.split(",")[2]) for l in lines[1:])
    assert vs == [20.0, 20.0, 40.0, 40.0]
    for svg in (backlog_svg, drops_svg):
        text = svg.read_text(encoding="utf-8")
        assert ET.fromstring(text).tag.endswith("svg")
        assert "two-queue qla seeds=0,1" in text


def test_sweep_parallel_matches_serial_byte_for_byte(tmp_path, capsys):
    paths = {}
    for label, jobs in (("serial", "1"), ("parallel", "2")):
        report = tmp_path / f"{label}.csv"
        svg = tmp_path / f"{label}.svg"
        code = main(SWEEP_ARGS + ["--jobs", jobs, "--report", str(report),
                                  "--plot-backlog", str(svg)])
        assert code == 0
        paths[label] = (report, svg)
    capsys.readouterr()
    assert paths["serial"][0].read_bytes() == paths["parallel"][0].read_bytes()
    assert paths["serial"][1].read_bytes() == paths["parallel"][1].read_bytes()


def test_in_process_sweep_builds_its_scenario_once(tmp_path, monkeypatch, capsys):
    names = []

    def counting_by_name(name, by_name=scenarios.by_name):
        names.append(name)
        return by_name(name)

    monkeypatch.setattr(scenarios, "by_name", counting_by_name)
    assert main(SWEEP_ARGS + ["--report", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert names == ["two-queue"]


def test_sweep_bad_v_list_exits_2(tmp_path, capsys):
    code = main(["sweep", "--scenario", "two-queue", "--V-list", "20,oops",
                 "--seeds", "0", "--report", str(tmp_path / "r.csv")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_rejects_nonpositive_jobs(tmp_path, capsys, jobs):
    report = tmp_path / "r.csv"
    code = main(SWEEP_ARGS + ["--jobs", jobs, "--report", str(report)])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not report.exists()


def test_sweep_failing_cell_fails_alone(tmp_path, capsys):
    """A bad V among good ones: the good rows are written, each bad cell is
    reported, the exit code is 1, and one or two jobs write the same bytes."""
    files = {}
    for jobs in ("1", "2"):
        report, svg = tmp_path / f"r{jobs}.csv", tmp_path / f"b{jobs}.svg"
        code = main(["sweep", "--scenario", "two-queue", "--V-list", "20,-5", "--seeds", "0,1",
                     "--slots", "600", "--jobs", jobs, "--report", str(report),
                     "--plot-backlog", str(svg)])
        captured = capsys.readouterr()
        assert code == 1
        failed = [line for line in captured.err.splitlines() if "sweep cell failed" in line]
        assert len(failed) == 2 and all("V=-5" in line for line in failed)
        assert "wrote 2 rows" in captured.out
        files[jobs] = (report.read_bytes(), svg.read_bytes())
    lines = files["1"][0].decode().splitlines()
    assert [line.split(",")[2:4] for line in lines[1:]] == [["20", "0"], ["20", "1"]]
    assert files["1"] == files["2"]


def test_sweep_reports_failed_cells(tmp_path, capsys):
    report = tmp_path / "r.csv"
    code = main(["sweep", "--scenario", "five-queue-chain", "--alg",
                 "fqla-bisect", "--V-list", "20", "--seeds", "0",
                 "--slots", "500", "--bisect-guess", "-5",
                 "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 1
    assert "sweep cell failed" in err
    assert not report.exists()


# -- cold start ----------------------------------------------------------------


def test_import_leaves_network_and_process_modules_unloaded():
    """xml.sax.saxutils pulls in urllib.request, http.client, ssl and email,
    and ProcessPoolExecutor pulls in multiprocessing: a cold CLI start loads
    none of them, nor the plotting module, which only a chart loads."""
    import lyapnet

    src = os.path.dirname(os.path.dirname(lyapnet.__file__))
    heavy = ["xml.sax", "urllib.request", "http.client", "ssl", "email",
             "concurrent.futures.process", "multiprocessing", "lyapnet._svg"]
    code = f"import sys, lyapnet.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("text", ["", "plain", "a < b & c > d", "&amp; &lt;&gt;", "<<&&>>",
                                  'quotes " and \' stay', "Δ ≤ 1 &#x3c;"])
def test_svg_escape_matches_saxutils(text):
    assert _svg._escape(text) == escape(text)
