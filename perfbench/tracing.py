"""Spans around calls into lyapnet's public functions, recorded from outside.

A :class:`Tracer` replaces a module attribute (the name through which the
library and the benchmark call a function, e.g. ``lyapnet.dual.evaluate_dual``)
with a wrapper that records one span per call: name, start, end, parent and
an optional attribute dict.  Spans stay in memory until the run ends.
:meth:`Tracer.restore` puts every original attribute back.

:func:`layer_metrics` turns the spans into the per-layer metrics: self time
(span minus its direct children), counts, and ratios together with their base.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``describe(args, kwargs, result)`` returns extra span attributes
        (counts such as slots); it runs after the span has closed.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _top_level(spans: list[Span], prefix: str) -> list[Span]:
    """Spans named ``prefix*`` whose ancestors carry no such name."""
    def nested(s: Span) -> bool:
        p = s.parent
        while p >= 0:
            if spans[p].name.startswith(prefix):
                return True
            p = spans[p].parent
        return False

    return [s for s in spans if s.name.startswith(prefix) and not nested(s)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install(tracer: Tracer, lib) -> None:
    """Wrap the public functions each layer is entered through."""
    sim, dual, sched, scenarios, cli = lib.sim, lib.dual, lib.sched, lib.scenarios, lib.cli

    def run_attrs(args, kwargs, rep):
        cfg = args[0] if args else kwargs["config"]
        spec = scenarios.as_handle(cfg.scenario).spec
        family = "finite" if spec.is_finite else "continuous"
        return {"slots": int(cfg.slots), "family": family, "algorithm": cfg.algorithm}

    def sample_attrs(args, kwargs, idx):
        return {"slots": int(len(idx))}

    def estimate_attrs(args, kwargs, est):
        return {"slots": int(est.K) * int(est.T)}

    tracer.wrap(scenarios, "by_name", "scenarios.build")
    tracer.wrap(sim, "sample_states", "model.sample_states", sample_attrs)
    tracer.wrap(sim, "run", "sim.run", run_attrs)
    for fn in ("deviation_statistics", "curve_from_deviations", "fit_tail"):
        tracer.wrap(sim, fn, "sim.stats." + fn)
    for fn in ("write_trace_csv", "write_report_csv"):
        tracer.wrap(sim, fn, "sim.csv." + fn)
    tracer.wrap(dual, "evaluate_dual", "dual.evaluate_dual")
    tracer.wrap(dual, "find_optimal_multiplier", "dual.find_opt")
    tracer.wrap(sched, "fqla_general_estimate", "sched.estimate", estimate_attrs)
    tracer.wrap(cli, "write_chart", "svg.write_chart")


RUN_SPLITS = [(fam, alg) for fam in ("finite", "continuous") for alg in ("qla", "fqla-ideal")]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over one traced round (seconds, counts, ratios)."""
    self_s = self_times(spans)
    m: dict[str, float] = {}

    def total(name: str) -> float:
        return sum(s.duration for s in _top_level(spans, name))

    def self_total(name: str, where=lambda s: True) -> float:
        return sum(t for s, t in zip(spans, self_s) if s.name == name and where(s))

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def attr_sum(name: str, key: str, where=lambda s: True) -> int:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name and where(s))

    m["scenarios.build.s"] = total("scenarios.build")
    m["model.sample_states.s"] = total("model.sample_states")
    m["model.sample_states.slots"] = attr_sum("model.sample_states", "slots")

    m["sim.run.calls"] = count("sim.run")
    m["sim.run.slots"] = attr_sum("sim.run", "slots")
    m["sim.run.self_s"] = self_total("sim.run")
    m["sim.run.ns_per_slot"] = 1e9 * _ratio(m["sim.run.self_s"], m["sim.run.slots"])
    for fam, alg in RUN_SPLITS:
        def where(s, fam=fam, alg=alg):
            return s.attrs.get("family") == fam and s.attrs.get("algorithm") == alg
        key = f"sim.run.{fam}.{alg}"
        m[key + ".self_s"] = self_total("sim.run", where)
        m[key + ".ns_per_slot"] = 1e9 * _ratio(m[key + ".self_s"],
                                               attr_sum("sim.run", "slots", where))

    m["sim.stats.s"] = total("sim.stats.")
    m["sim.csv.write_s"] = total("sim.csv.")

    m["dual.find_opt.calls"] = count("dual.find_opt")
    m["dual.find_opt.s"] = total("dual.find_opt")
    m["dual.evaluate_dual.calls"] = count("dual.evaluate_dual")
    m["dual.evaluate_dual.self_s"] = self_total("dual.evaluate_dual")

    m["sched.estimate.calls"] = count("sched.estimate")
    m["sched.estimate.s"] = total("sched.estimate")
    m["sched.warmup.slots"] = attr_sum("sched.estimate", "slots")
    m["sched.warmup.slots_per_s"] = _ratio(m["sched.warmup.slots"], m["sched.estimate.s"])

    for cmd in ("sweep", "run", "analyze"):
        m[f"cli.{cmd}.self_s"] = self_total(f"cli.{cmd}")
    m["svg.write_chart.s"] = total("svg.write_chart")

    m["trace.self_sum_s"] = sum(self_s)
    return m


def _units() -> dict[str, str]:
    units = {
        "scenarios.build.s": "s",
        "model.sample_states.s": "s",
        "model.sample_states.slots": "slots",
        "sim.run.calls": "count",
        "sim.run.slots": "slots",
        "sim.run.self_s": "s",
        "sim.run.ns_per_slot": "ns/slot",
    }
    for fam, alg in RUN_SPLITS:
        units[f"sim.run.{fam}.{alg}.self_s"] = "s"
        units[f"sim.run.{fam}.{alg}.ns_per_slot"] = "ns/slot"
    units.update({
        "sim.run.peak_mb_per_mslot": "MB/Mslot",
        "sim.stats.s": "s",
        "sim.csv.write_s": "s",
        "dual.find_opt.calls": "count",
        "dual.find_opt.s": "s",
        "dual.evaluate_dual.calls": "count",
        "dual.evaluate_dual.self_s": "s",
        "sched.estimate.calls": "count",
        "sched.estimate.s": "s",
        "sched.warmup.slots": "slots",
        "sched.warmup.slots_per_s": "slots/s",
        "cli.sweep.self_s": "s",
        "cli.run.self_s": "s",
        "cli.analyze.self_s": "s",
        "svg.write_chart.s": "s",
        "sim.cost_gap_pct": "%",
        "sim.fqla_backlog": "packets",
        "sim.drop_fraction": "fraction",
        "sched.placeholder_err": "ln2V",
        "trace.wall_s": "s",
        "trace.self_sum_s": "s",
        "trace.overhead.round_s": "s",
        "trace.overhead.slots_per_s": "slots/s",
    })
    return units


# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = _units()
