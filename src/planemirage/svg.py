"""SVG plot of a sweep table; planemirage.output.emit loads it only for svg
and writes the lines it returns."""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterable

from ._value import _modulus
from .output import _TABLES, _fmt

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
    x axis. An |value| past the float range is inf; the amplitude panel's
    top stays finite, and such a point is drawn there."""
    fields = _TABLES[mode][:3]  # the series before eta_n or chi_e
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
                    (theta, _modulus(value), math.degrees(cmath.phase(value)))
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
        px, pw, ph = _PANEL["x0"], _PANEL["w"], _PANEL["h"]
        # one of each equal x, the first met, so x_min and x_max are what
        # min and max over every point give; each is placed once
        xs = {p[0] for pts in points.values() for p in pts}
        x_min, x_max = min(xs), max(xs)
        x_span = (x_max - x_min) or 1.0
        x_at = {x: f"{px + pw * (x - x_min) / x_span:.2f}," for x in xs}
        a_max = min(max(max(p[1] for pts in points.values() for p in pts), 1.0), sys.float_info.max)
        panels = [
            ("amplitude", 40, 1, 0.0, a_max),
            ("phase, degrees", 330, 2, -180.0, 180.0),
        ]
        for title, y0, k, lo, hi in panels:
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
                coords = []
                for p in pts:
                    y = p[k]
                    if y > hi:  # an amplitude of inf, at the panel's top
                        y = hi
                    # the fraction of the span first, so ph times it cannot overflow
                    coords.append(f"{x_at[p[0]]}{y0 + ph - ph * ((y - lo) / span):.2f}")
                lines.append(
                    f'<polyline points="{" ".join(coords)}" fill="none" '
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
