"""SVG plot of a sweep table; planemirage.output.emit loads it only for svg
and writes the lines it returns."""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable

from .output import _fmt

# Fixed plot geometry; coordinates rounded to 0.01 px for determinism.
_SVG_W, _SVG_H = 860, 620
_PANEL = dict(x0=70, w=720, h=230)
_COLORS = {"g_act": "#1f6fb2", "g_tgt": "#c24b3a", "rho_req": "#3a8f5a"}
_LABELS = {"g_act": "actual", "g_tgt": "target", "rho_req": "required sheet"}


def _svg_lines(rows: Iterable[tuple], mode) -> tuple[list[str], int]:
    """Amplitude and phase panels versus the sweep variable, one polyline
    per series and per value of the other grid axis, as the lines of an SVG
    file, and how many rows had an err tag; mode is None for simulate's
    table. Presentation only.

    Each row is read once, as it streams past: only the points it draws are
    kept, as (theta, |value|, phase in degrees) under (series, frequency),
    and they move under (series, angle) once frequency turns out to be the
    x axis."""
    fields = ("g_act", "g_tgt") if mode is None else ("g_act", "g_tgt", "rho_req")
    points: dict[tuple[str, float], list[tuple[float, float, float]]] = {}
    freqs, thetas = set(), set()
    tagged = 0
    for f, theta, *values in rows:
        if values[-1]:  # err
            tagged += 1
        freqs.add(f)
        thetas.add(theta)
        for field, value in zip(fields, values):
            if value is not None:
                points.setdefault((field, f), []).append(
                    (theta, abs(value), math.degrees(cmath.phase(value)))
                )
    if len(thetas) > 1 or len(freqs) <= 1:
        x_label = "incidence angle, degrees"
    else:
        x_label = "frequency, GHz"
        by_theta: dict[tuple[str, float], list[tuple[float, float, float]]] = {}
        for (field, f), pts in points.items():
            for theta, amp, phase in pts:
                by_theta.setdefault((field, theta), []).append((f, amp, phase))
        points = by_theta
    for pts in points.values():
        pts.sort(key=lambda p: p[0])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    if points:
        x_min = min(p[0] for pts in points.values() for p in pts)
        x_max = max(p[0] for pts in points.values() for p in pts)
        x_span = (x_max - x_min) or 1.0
        a_max = max(max(p[1] for pts in points.values() for p in pts), 1.0)
        panels = [
            ("amplitude", 40, lambda p: p[1], 0.0, a_max),
            ("phase, degrees", 330, lambda p: p[2], -180.0, 180.0),
        ]
        for title, y0, pick, lo, hi in panels:
            px, pw, ph = _PANEL["x0"], _PANEL["w"], _PANEL["h"]
            span = hi - lo
            lines.append(
                f'<rect x="{px}" y="{y0}" width="{pw}" height="{ph}" fill="none" stroke="#999"/>'
            )
            lines.append(f'<text x="{px}" y="{y0 - 8}">{title}</text>')
            lines.append(
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
                lines.append(
                    f'<polyline points="{coords}" fill="none" '
                    f'stroke="{_COLORS[field]}" stroke-width="1" opacity="0.75"/>'
                )
        for i, field in enumerate(fields):
            lx = _PANEL["x0"] + 160 * i
            lines.append(
                f'<rect x="{lx}" y="{_SVG_H - 24}" width="12" height="12" fill="{_COLORS[field]}"/>'
                f'<text x="{lx + 18}" y="{_SVG_H - 14}">{_LABELS[field]}</text>'
            )
    lines.append("</svg>")
    return lines, tagged
