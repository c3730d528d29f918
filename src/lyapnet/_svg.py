"""Minimal deterministic SVG line/scatter charts.

Charts are emitted natively so reports stay dependency-free.  Output is
byte-stable for identical inputs: fixed layout, fixed float formatting,
no timestamps.  Log-scale y drops nonpositive points.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import _Record

__all__ = ["Series", "render_chart"]

_PALETTE = ("#1f6fb2", "#d1495b", "#3a9e5f", "#8a5fb0", "#c98a2b", "#4d4d4d")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 18, 58, 52


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content (as xml.sax.saxutils
    does, without importing its urllib and email dependencies)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class Series(_Record):
    label: str
    x: np.ndarray
    y: np.ndarray
    kind: str = "line"  # "line" or "scatter"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("series x and y must be 1-D arrays of equal length")
        if self.kind not in ("line", "scatter"):
            raise ValueError(f"unknown series kind {self.kind!r}")


def _text(x, y, body: str, size: int = 11, fill: str = "#111111",
          pre: str = ' text-anchor="middle"', post: str = "") -> str:
    return (f'<text x="{x}" y="{y}"{pre} font-family="monospace" font-size="{size}" '
            f'fill="{fill}"{post}>{_escape(body)}</text>')


def _fmt_px(v: float) -> str:
    return "%.2f" % v


def _fmt_val(v: float) -> str:
    return "%.6g" % v


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (mult * mag) <= target - 1 + 1e-9:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo) + 1e-12)
    hi_e = math.ceil(math.log10(hi) - 1e-12)
    ticks = [10.0 ** e for e in range(lo_e, hi_e + 1)]
    if len(ticks) < 3:  # sparse decades: add 2x and 5x minors
        minors = [m * 10.0 ** e for e in range(lo_e, hi_e + 1) for m in (2.0, 5.0)]
        ticks = sorted(t for t in ticks + minors if lo / 1.5 <= t <= hi * 1.5)
    return ticks


def render_chart(series: Sequence[Series], *, title: str = "", caption: str = "",
                 xlabel: str = "", ylabel: str = "", log_y: bool = False) -> str:
    """Render series into an SVG document string of 720 by 480 pixels."""
    pts = []
    for s in series:
        mask = np.isfinite(s.x) & np.isfinite(s.y)
        if log_y:
            mask &= s.y > 0
        pts.append((s.x[mask], s.y[mask]))
    xs = np.concatenate([p[0] for p in pts]) if pts else np.array([0.0])
    ys = np.concatenate([p[1] for p in pts]) if pts else np.array([1.0])
    if xs.size == 0:
        xs, ys = np.array([0.0, 1.0]), np.array([1.0, 2.0])

    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    pad = 0.04 * (x_hi - x_lo)
    x_lo, x_hi = x_lo - pad, x_hi + pad

    if log_y:
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if y_hi <= y_lo:
            y_hi = y_lo * 10.0
        lpad = 0.06 * (math.log10(y_hi) - math.log10(y_lo) or 1.0)
        y_lo = 10.0 ** (math.log10(y_lo) - lpad)
        y_hi = 10.0 ** (math.log10(y_hi) + lpad)
    else:
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if y_hi <= y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.06 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v: float) -> float:
        if log_y:
            f = (math.log10(v) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            f = (v - y_lo) / (y_hi - y_lo)
        return _MT + (1.0 - f) * ph

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
               f'height="{_H}" viewBox="0 0 {_W} {_H}">')
    out.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>')
    if title:
        out.append(_text(_W // 2, 22, title, 14))
    if caption:
        out.append(_text(_W // 2, 40, caption, fill="#555555"))

    x_ticks = _nice_ticks(x_lo, x_hi)
    y_ticks = _log_ticks(y_lo, y_hi) if log_y else _nice_ticks(y_lo, y_hi)
    for t in x_ticks:
        xp = _fmt_px(px(t))
        out.append(f'<line x1="{xp}" y1="{_MT}" x2="{xp}" y2="{_MT + ph}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(_text(xp, _MT + ph + 18, _fmt_val(t), fill="#333333"))
    for t in y_ticks:
        yp = _fmt_px(py(t))
        out.append(f'<line x1="{_ML}" y1="{yp}" x2="{_ML + pw}" y2="{yp}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(_text(_ML - 6, yp, _fmt_val(t), fill="#333333", pre=' text-anchor="end" dy="4"'))
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')
    if xlabel:
        out.append(_text(_ML + pw // 2, _H - 12, xlabel, 12))
    if ylabel:
        yc = _MT + ph // 2
        out.append(_text(16, yc, ylabel, 12, post=f' transform="rotate(-90 16 {yc})"'))

    for si, (s, (sx, sy)) in enumerate(zip(series, pts)):
        color = _PALETTE[si % len(_PALETTE)]
        if s.kind == "line" and sx.size >= 2:
            coords = " ".join(f"{_fmt_px(px(a))},{_fmt_px(py(b))}"
                              for a, b in zip(sx, sy))
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       f'stroke-width="1.6"/>')
        if s.kind == "scatter" or sx.size < 2 or sx.size <= 64:
            for a, b in zip(sx, sy):
                out.append(f'<circle cx="{_fmt_px(px(a))}" cy="{_fmt_px(py(b))}" '
                           f'r="2.6" fill="{color}"/>')

    ly = _MT + 14
    for si, s in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        out.append(f'<line x1="{_ML + pw - 130}" y1="{ly - 4}" x2="{_ML + pw - 106}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(_text(_ML + pw - 100, ly, s.label, pre=""))
        ly += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"
