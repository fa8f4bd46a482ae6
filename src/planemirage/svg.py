"""SVG emitter of a sweep table; planemirage.sweep.emit loads it only for svg."""

from __future__ import annotations

import cmath
import math
from pathlib import Path
from typing import Iterable

from .sweep import SweepRow, _fmt, _write_csv

# Fixed plot geometry; coordinates rounded to 0.01 px for determinism.
_SVG_W, _SVG_H = 860, 620
_PANEL = dict(x0=70, w=720, h=230)
_COLORS = {"g_act": "#1f6fb2", "g_tgt": "#c24b3a", "rho_req": "#3a8f5a"}
_LABELS = {"g_act": "actual", "g_tgt": "target", "rho_req": "required sheet"}


def _emit_svg(rows: Iterable[SweepRow], kind: str, path: Path) -> None:
    """Amplitude and phase panels versus the sweep variable, one polyline
    per series and per value of the other grid axis. Presentation only."""
    rows = list(map(SweepRow._make, rows))
    freqs = sorted({r.freq_ghz for r in rows})
    thetas = sorted({r.theta_deg for r in rows})
    x_is_theta = len(thetas) > 1 or len(freqs) <= 1
    if x_is_theta:
        x_of = lambda r: r.theta_deg
        group_of = lambda r: r.freq_ghz
        x_label = "incidence angle, degrees"
    else:
        x_of = lambda r: r.freq_ghz
        group_of = lambda r: r.theta_deg
        x_label = "frequency, GHz"
    fields = ["g_act", "g_tgt"]
    if kind != "simulate":
        fields.append("rho_req")

    points: dict[tuple[str, float], list[tuple[float, float, float]]] = {}
    for r in rows:
        for field in fields:
            value = getattr(r, field)
            if value is None:
                continue
            points.setdefault((field, group_of(r)), []).append(
                (x_of(r), abs(value), math.degrees(cmath.phase(value)))
            )
    for pts in points.values():
        pts.sort(key=lambda p: p[0])

    xs = [p[0] for pts in points.values() for p in pts]
    amps = [p[1] for pts in points.values() for p in pts]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    if xs:
        x_min, x_max = min(xs), max(xs)
        x_span = (x_max - x_min) or 1.0
        a_max = max(max(amps), 1.0)
        panels = [
            ("amplitude", 40, lambda p: p[1], 0.0, a_max),
            ("phase, degrees", 330, lambda p: p[2], -180.0, 180.0),
        ]
        for title, y0, pick, lo, hi in panels:
            px, pw, ph = _PANEL["x0"], _PANEL["w"], _PANEL["h"]
            span = hi - lo
            parts.append(
                f'<rect x="{px}" y="{y0}" width="{pw}" height="{ph}" fill="none" stroke="#999"/>'
            )
            parts.append(f'<text x="{px}" y="{y0 - 8}">{title}</text>')
            parts.append(
                f'<text x="{px}" y="{y0 + ph + 16}">{_fmt(x_min)}</text>'
                f'<text x="{px + pw - 40}" y="{y0 + ph + 16}">{_fmt(x_max)}</text>'
                f'<text x="{px + pw // 2 - 60}" y="{y0 + ph + 32}">{x_label}</text>'
                f'<text x="{px - 64}" y="{y0 + 12}">{hi:.3g}</text>'
                f'<text x="{px - 64}" y="{y0 + ph}">{lo:.3g}</text>'
            )
            for (field, _group), pts in sorted(points.items()):
                coords = " ".join(
                    f"{px + pw * (p[0] - x_min) / x_span:.2f},"
                    f"{y0 + ph - ph * (min(max(pick(p), lo), hi) - lo) / span:.2f}"
                    for p in pts
                )
                parts.append(
                    f'<polyline points="{coords}" fill="none" '
                    f'stroke="{_COLORS[field]}" stroke-width="1" opacity="0.75"/>'
                )
        for i, field in enumerate(fields):
            lx = _PANEL["x0"] + 160 * i
            parts.append(
                f'<rect x="{lx}" y="{_SVG_H - 24}" width="12" height="12" fill="{_COLORS[field]}"/>'
                f'<text x="{lx + 18}" y="{_SVG_H - 14}">{_LABELS[field]}</text>'
            )
    parts.append("</svg>")
    # one line per part; the first, as a header of one cell, has no comma to join
    _write_csv(path, parts[:1], parts[1:], str)
