"""Command-line front end.

Subcommands:

  simulate     total reflection of both stacks over a (theta, frequency) grid
  synthesize   the same grid plus the synthesized sheet state per point
  select-cell  nearest unit-cell state to a target reflection
  coding-set   N-bit coding set from a reflection map
  companion    closed-form auxiliary models (to-map, pb-phase, grating)

Each subcommand reads a JSON config (--config) or, for the sweep commands,
the bundled demonstration scenario (--scenario builtin), and writes CSV or
SVG to --out. Config units are mm / GHz / pF / degrees; they are converted
to SI on parse. CSV output is deterministic: identical inputs give
byte-identical files.

Exit codes: 0 success; 1 configuration, data, or I/O error; 2 when every
grid point of a sweep failed (per-point failures otherwise land in the
`err` column and the run continues); 3 when a grid point raised an
exception that is not a PlanemirageError, a fault of the program rather
than of its input: one stderr line names the point (f, theta) and the
exception, and no output file is written. A sweep streams its rows into
the encoded table and opens the file only after its last point.

A command imports only what it runs: the sweep commands never load
unitcell or companions, and json is loaded only where a config is read.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from ._value import Value
from .errors import (
    ConfigError,
    EvanescentOrderError,
    PlanemirageError,
    WriteError,
)
from .synthesis import Mode, sheet_state
from .wavecore import (
    AIR,
    Layer,
    Medium,
    Open,
    Pec,
    PlaneWave,
    Sheet,
    Stack,
    angle_walk,
    fold_reflection,
    frequency_step,
    walk_reflection,
)

_GRID_NUDGE = 1e-9  # absorbs float noise in (stop - start)/step


class SweepAxis(Value):
    __slots__ = ("start", "stop", "step")

    def __init__(self, start: float, stop: float, step: float) -> None:
        for name, v in (("start", start), ("stop", stop), ("step", step)):
            v = float(v)
            if not math.isfinite(v):
                raise ConfigError(f"sweep {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.step <= 0.0:
            raise ConfigError(f"sweep step must be > 0, got {self.step}")
        if self.start > self.stop:
            raise ConfigError(f"sweep start {self.start} exceeds stop {self.stop}")

    def values(self) -> list[float]:
        n = int(math.floor((self.stop - self.start) / self.step + _GRID_NUDGE)) + 1
        return [self.start + i * self.step for i in range(n)]


class ScenarioConfig(Value):
    __slots__ = (
        "actual", "target", "mode", "theta_deg", "freq_ghz", "output_format", "output_path"
    )

    def __init__(
        self,
        actual: Stack,
        target: Stack,
        mode: Mode | None,
        theta_deg: SweepAxis,
        freq_ghz: SweepAxis,
        output_format: str = "csv",
        output_path: str | None = None,
    ) -> None:
        if theta_deg.stop > 80.0:
            raise ConfigError(f"theta sweep must stop at 80 degrees or below, got {theta_deg.stop}")
        if theta_deg.start < 0.0:
            raise ConfigError(f"theta sweep must start at 0 or above, got {theta_deg.start}")
        if freq_ghz.start <= 0.0:
            raise ConfigError(f"frequencies must be positive, got {freq_ghz.start}")
        if not math.isfinite(freq_ghz.stop * 1e9):
            raise ConfigError(f"freq_ghz stop {freq_ghz.stop} GHz is not finite in Hz")
        if output_format not in ("csv", "svg"):
            raise ConfigError(f"output format must be csv or svg, got {output_format!r}")
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "theta_deg", theta_deg)
        object.__setattr__(self, "freq_ghz", freq_ghz)
        object.__setattr__(self, "output_format", output_format)
        object.__setattr__(self, "output_path", output_path)


class SweepRow(NamedTuple):
    """One grid point; None fields were not computed (see err). The sweep
    yields plain tuples in this field order, and the functions that return
    rows wrap them as SweepRow."""

    freq_ghz: float
    theta_deg: float
    g_act: complex | None
    g_tgt: complex | None
    rho_req: complex | None = None
    aux: complex | None = None  # normalized impedance or chi_e, by mode
    passive: bool | None = None
    err: str = ""


def builtin_scenario() -> ScenarioConfig:
    """Bundled demonstration: a lossy FR4 slab over a conducting wall,
    to be disguised as a Teflon slab over open air."""
    actual = Stack(
        incident_medium=AIR,
        layers=(
            Layer(AIR, 0.120),
            Layer(Medium(3.9 - 0.08j), 0.060),
            Layer(AIR, 0.120),
        ),
        termination=Pec(),
    )
    target = Stack(
        incident_medium=AIR,
        layers=(
            Layer(AIR, 0.060),
            Layer(Medium(2.1 - 0.0006j), 0.120),
            Layer(AIR, 0.120),
        ),
        termination=Open(AIR),
    )
    return ScenarioConfig(
        actual=actual,
        target=target,
        mode=Mode.REFLECTIVE,
        theta_deg=SweepAxis(0.0, 80.0, 0.5),
        freq_ghz=SweepAxis(10.0, 12.0, 0.1),
    )


# ---------------------------------------------------------------- config I/O


def _load_json(path: Path):
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


def _require_keys(obj, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing required key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _parse_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _parse_medium(obj, where: str) -> Medium:
    _require_keys(obj, where, ("eps",), ("mu",))
    eps = _parse_complex(obj["eps"], f"{where}.eps")
    mu = _parse_complex(obj.get("mu", 1.0), f"{where}.mu")
    try:
        return Medium(eps, mu)
    except PlanemirageError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_termination(obj, where: str):
    _require_keys(obj, where, ("kind",), ("eps", "mu", "rho"))
    kind = obj["kind"]
    if kind == "pec":
        _require_keys(obj, where, ("kind",))
        return Pec()
    if kind == "open":
        _require_keys(obj, where, ("kind",), ("eps", "mu"))
        return Open(_parse_medium({"eps": 1.0, **{k: v for k, v in obj.items() if k != "kind"}}, where))
    if kind == "sheet":
        _require_keys(obj, where, ("kind", "rho"))
        return Sheet(_parse_complex(obj["rho"], f"{where}.rho"))
    raise ConfigError(f"{where}: kind must be pec, open, or sheet, got {kind!r}")


def _parse_stack(obj, where: str) -> Stack:
    _require_keys(obj, where, ("layers", "termination"), ("incident",))
    incident = _parse_medium(obj["incident"], f"{where}.incident") if "incident" in obj else AIR
    layers_obj = obj["layers"]
    if not isinstance(layers_obj, list) or not layers_obj:
        raise ConfigError(f"{where}.layers: expected a non-empty list")
    layers = []
    for i, layer_obj in enumerate(layers_obj):
        lw = f"{where}.layers[{i}]"
        _require_keys(layer_obj, lw, ("eps", "thickness_mm"), ("mu",))
        medium = _parse_medium({k: v for k, v in layer_obj.items() if k != "thickness_mm"}, lw)
        thickness_mm = _parse_number(layer_obj["thickness_mm"], f"{lw}.thickness_mm")
        if thickness_mm < 0.0:
            raise ConfigError(f"{lw}.thickness_mm: must be >= 0, got {thickness_mm}")
        layers.append(Layer(medium, thickness_mm * 1e-3))
    termination = _parse_termination(obj["termination"], f"{where}.termination")
    try:
        return Stack(incident_medium=incident, layers=tuple(layers), termination=termination)
    except PlanemirageError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_axis(obj, where: str) -> SweepAxis:
    _require_keys(obj, where, ("start", "stop", "step"))
    return SweepAxis(
        _parse_number(obj["start"], f"{where}.start"),
        _parse_number(obj["stop"], f"{where}.stop"),
        _parse_number(obj["step"], f"{where}.step"),
    )


def parse_scenario(path: Path) -> ScenarioConfig:
    """Read and validate a sweep scenario config (simulate/synthesize)."""
    doc = _load_json(path)
    _require_keys(doc, str(path), ("actual", "target", "sweep"), ("mode", "output"))
    actual = _parse_stack(doc["actual"], "actual")
    target = _parse_stack(doc["target"], "target")
    mode = None
    if "mode" in doc:
        if doc["mode"] not in ("reflective", "transmissive"):
            raise ConfigError(f"mode must be reflective or transmissive, got {doc['mode']!r}")
        mode = Mode(doc["mode"])
    sweep = doc["sweep"]
    _require_keys(sweep, "sweep", ("theta_deg", "freq_ghz"))
    theta = _parse_axis(sweep["theta_deg"], "sweep.theta_deg")
    freq = _parse_axis(sweep["freq_ghz"], "sweep.freq_ghz")
    out = doc.get("output", {})
    _require_keys(out, "output", (), ("format", "path"))
    output_format = out.get("format", "csv")
    output_path = out.get("path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output.path: expected a string")
    return ScenarioConfig(
        actual=actual,
        target=target,
        mode=mode,
        theta_deg=theta,
        freq_ghz=freq,
        output_format=output_format,
        output_path=output_path,
    )


# ------------------------------------------------------------------- sweeps


def _error_tag(exc: Exception) -> str:
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[:-5]
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _angle_walk(stack: Stack, theta: float):
    """The stack's angle walk at theta, or the error tag of the walk if it raised."""
    try:
        return angle_walk(stack, theta)
    except PlanemirageError as exc:
        return _error_tag(exc)


def _gamma(walk, k0: float, errs: list[str]) -> complex | None:
    """Gamma of one stack at k0 from its angle walk, or None with the
    failure's tag, the walk's own included, in errs."""
    if isinstance(walk, str):
        errs.append(walk)
        return None
    try:
        return walk_reflection(walk, k0)
    except PlanemirageError as exc:
        errs.append(_error_tag(exc))
        return None


def _reflect(walk, k0: float, errs: list[str]):
    """(segments, rho_T, Gamma) of one stack at k0 from its angle walk, for
    an inversion that needs the segments. A failure, the walk's own tag
    included, goes to errs and leaves None for what it kept from being
    computed."""
    segments = rho_t = gamma = None
    if isinstance(walk, str):
        errs.append(walk)
    else:
        try:
            segments, rho_t = frequency_step(walk, k0)
            gamma = fold_reflection(segments, rho_t)
        except PlanemirageError as exc:
            errs.append(_error_tag(exc))
    return segments, rho_t, gamma


class GridPointFault(Exception):
    """A sweep point raised an exception that is not a PlanemirageError: a
    fault of the program, not of the point's input, so the sweep stops
    instead of tagging the point. f_ghz is None when the angle walk raised."""

    def __init__(self, f_ghz: float | None, theta_deg: float, exc: Exception) -> None:
        where = f"theta = {theta_deg!r} deg"
        if f_ghz is not None:
            where = f"f = {f_ghz!r} GHz, " + where
        super().__init__(f"{where}: {type(exc).__name__}: {exc}")


def _sweep(config: ScenarioConfig, mode: Mode | None) -> Iterator[tuple]:
    """Both stacks' total reflection at every grid point, (freq, theta)
    order, plus the point's sheet_state when mode is given; each row is
    yielded as soon as its point is done, as a plain tuple in SweepRow's
    field order, and a frequency's rows share one freq_ghz float.

    Every medium is non-dispersive, so each stack is walked once per angle
    and each point only folds the walk at its k0, taking the frequency step
    as segments only for the actual stack of a synthesis; a point gets the
    same bits as chain_reflection and synthesize. A failed walk is
    tagged at every frequency of its angle. A point whose actual segments
    or Gamma_i failed is not synthesized: one tag per failure. Any other
    exception at a point raises GridPointFault."""
    angles = []
    f_ghz = theta_deg = None
    # One guard around both loops: the loop variables name the point that raised.
    try:
        for theta_deg in config.theta_deg.values():
            theta = math.radians(theta_deg)
            walks = (_angle_walk(config.actual, theta), _angle_walk(config.target, theta))
            angles.append((theta_deg, cmath.cos(theta), *walks))
        for f_ghz in config.freq_ghz.values():
            k0 = PlaneWave(f_ghz * 1e9).k0
            for theta_deg, cos_theta, actual, target in angles:
                errs = []
                if mode is None:
                    segments = None
                    g_act = _gamma(actual, k0, errs)
                else:
                    segments, rho_t, g_act = _reflect(actual, k0, errs)
                g_tgt = _gamma(target, k0, errs)
                rho_req = aux = passive = None
                if segments is not None and g_tgt is not None:
                    try:
                        rho_req, aux, passive = sheet_state(mode, segments, rho_t, g_tgt, k0, cos_theta)
                    except PlanemirageError as exc:
                        errs.append(_error_tag(exc))
                yield f_ghz, theta_deg, g_act, g_tgt, rho_req, aux, passive, ";".join(errs)
    except PlanemirageError:
        raise
    except Exception as exc:
        raise GridPointFault(f_ghz, theta_deg, exc) from exc


def run_simulate(config: ScenarioConfig) -> list[SweepRow]:
    """Total reflection of both stacks at every grid point, (freq, theta) order."""
    return list(map(SweepRow._make, _sweep(config, None)))


_NO_MODE = "synthesize needs a mode (reflective or transmissive)"


def run_synthesize(config: ScenarioConfig) -> list[SweepRow]:
    """run_simulate plus the synthesized sheet state at every grid point."""
    if config.mode is None:
        raise ConfigError(_NO_MODE)
    return list(map(SweepRow._make, _sweep(config, config.mode)))


# ----------------------------------------------------------------- emission


# The complex columns of each table kind, carried by a row in the order
# g_act, g_tgt, rho_req, aux. Every table starts with freq_ghz,theta_deg and
# ends with err; a synthesis table puts passive before err.
_TABLES = {
    "simulate": ("g_act", "g_tgt"),
    "synthesize-reflective": ("g_act", "g_tgt", "rho_req", "eta_n"),
    "synthesize-transmissive": ("g_act", "g_tgt", "rho_req", "chi_e"),
}


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _pair(value: complex | None) -> list[str]:
    if value is None:
        return ["", ""]
    return [_fmt(value.real), _fmt(value.imag)]


def _cells(values) -> list[str]:
    """The one CSV cell rule: a number is written %.17g (a bool too, as 1
    or 0), a complex value takes two cells, None is an empty cell and a
    string is written as it is. Sweep rows, whose column types are fixed,
    follow the same rule where _sweep_table builds them."""
    cells = []
    for value in values:
        if isinstance(value, complex):
            cells += _pair(value)
        elif value is None or isinstance(value, str):
            cells.append(value or "")
        else:
            cells.append(_fmt(value))
    return cells


def _sweep_table(kind: str):
    """Header and row formatter of a sweep table."""
    if kind not in _TABLES:
        raise ValueError(f"unknown table kind {kind!r}")
    names = _TABLES[kind]
    synthesis = kind != "simulate"
    header = ["freq_ghz", "theta_deg"]
    for name in names:
        header += [f"{name}_re", f"{name}_im"]
    header += ["passive", "err"] if synthesis else ["err"]
    # A row with no err has every cell, so one format string writes it,
    # the passive flag as %s and the empty err as the trailing comma. The
    # freq_ghz cell is formatted once for each run of rows that share one
    # float object, as a frequency's rows from _sweep do; holding the last
    # object keeps its identity from passing to another float.
    ok = ",".join(["%s"] + ["%.17g"] * (1 + 2 * len(names)) + ["%s"] * synthesis) + ","
    f_last = f_cell = None

    def row_line(r) -> str:
        nonlocal f_last, f_cell
        f, theta, a, t, rho, aux, passive, err = r
        if f is not f_last:
            f_last, f_cell = f, _fmt(f)
        if not err:
            if not synthesis:
                return ok % (f_cell, theta, a.real, a.imag, t.real, t.imag)
            return ok % (
                f_cell, theta, a.real, a.imag, t.real, t.imag,
                rho.real, rho.imag, aux.real, aux.imag, "1" if passive else "0",
            )
        out = [f_cell, _fmt(theta)]
        for value in (a, t, rho, aux)[: len(names)]:
            out += _pair(value)
        if synthesis:  # _fmt(passive), without its slow float conversion
            out.append("" if passive is None else ("1" if passive else "0"))
        out.append(err)
        return ",".join(out)

    return header, row_line


def _write_csv(path: Path, header: list[str], rows, line) -> None:
    """Every CSV table: the header line, then line(row), a string of
    comma-joined cells, for each row; every line ends in a newline."""
    # Rows are taken 256 at a time, then formatted and encoded together,
    # so a table is held once, as bytes, and the file is opened only after
    # its last row is formed: a sweep that stops at a point writes nothing.
    rows = iter(rows)
    chunks = [f"{','.join(header)}\n".encode()]
    while batch := list(islice(rows, 256)):
        chunks.append("\n".join([*map(line, batch), ""]).encode())
    _write_bytes(path, chunks)


def _write_bytes(path: Path, chunks) -> None:
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from None


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
    _write_bytes(path, [("\n".join(parts) + "\n").encode()])


def emit(rows: Iterable[SweepRow], kind: str, output_format: str, path: Path) -> None:
    """Write a sweep table to path as CSV (canonical) or SVG (presentation).
    rows are SweepRows or plain tuples in SweepRow's field order, and may be
    an iterator; the file is written once it is exhausted."""
    if output_format == "csv":
        header, line = _sweep_table(kind)
        _write_csv(path, header, rows, line)
    elif output_format == "svg":
        _emit_svg(rows, kind, path)
    else:
        raise ConfigError(f"output format must be csv or svg, got {output_format!r}")


# ------------------------------------------------- non-sweep subcommands


def _load_map_from_config(doc: dict, where: str):
    from .unitcell import load_reflection_map, load_sample_map

    source = doc["map"]
    if source == "sample":
        return load_sample_map()
    if isinstance(source, str):
        return load_reflection_map(source)
    raise ConfigError(f"{where}.map: expected 'sample' or a file path")


def _parse_rho_target(value, where: str) -> complex:
    if isinstance(value, dict):
        _require_keys(value, where, ("amplitude", "phase_deg"))
        amp = _parse_number(value["amplitude"], f"{where}.amplitude")
        phase = _parse_number(value["phase_deg"], f"{where}.phase_deg")
        return amp * cmath.exp(1j * math.radians(phase))
    return _parse_complex(value, where)


def _parse_samples(doc: dict) -> int:
    samples = doc.get("samples", 101)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
        raise ConfigError(f"samples: expected an integer >= 2, got {samples!r}")
    return samples


def _select_cell(doc: dict, where: str):
    from .unitcell import MAP_HEADER, select_state

    _require_keys(doc, where, ("map", "frequency_ghz", "rho_target"), ("phase_only",))
    reflection_map = _load_map_from_config(doc, where)
    frequency = _parse_number(doc["frequency_ghz"], "frequency_ghz")
    rho_target = _parse_rho_target(doc["rho_target"], "rho_target")
    phase_only = doc.get("phase_only", False)
    if not isinstance(phase_only, bool):
        raise ConfigError("phase_only: expected true or false")
    rec = select_state(reflection_map, frequency, rho_target, phase_only=phase_only)
    return MAP_HEADER.split(","), [(rec.f_ghz, rec.r_ohm, rec.c_pf, rec.rho)]


def _coding_set(doc: dict, where: str):
    from .unitcell import MAP_HEADER, build_coding_set

    _require_keys(doc, where, ("map", "frequency_ghz", "n_bit"), ("min_amplitude",))
    reflection_map = _load_map_from_config(doc, where)
    frequency = _parse_number(doc["frequency_ghz"], "frequency_ghz")
    n_bit = doc["n_bit"]
    if isinstance(n_bit, bool) or not isinstance(n_bit, int):
        raise ConfigError(f"n_bit: expected an integer, got {n_bit!r}")
    min_amplitude = _parse_number(doc.get("min_amplitude", 0.3), "min_amplitude")
    coding = build_coding_set(reflection_map, frequency, n_bit, min_amplitude)
    return ["slot", "target_phase_rad", *MAP_HEADER.split(",")], [
        (slot, phase, rec.f_ghz, rec.r_ohm, rec.c_pf, rec.rho)
        for slot, (phase, rec) in enumerate(zip(coding.target_phases, coding.states))
    ]


def _to_map(doc: dict, where: str):
    from .companions import RadialTransform, radial_forward, radial_inverse

    _require_keys(doc, where, ("r1_mm", "r2_mm", "q"), ("samples",))
    transform = RadialTransform(
        _parse_number(doc["r1_mm"], "r1_mm") * 1e-3,
        _parse_number(doc["r2_mm"], "r2_mm") * 1e-3,
        _parse_number(doc["q"], "q"),
    )
    samples = _parse_samples(doc)
    rows = []
    for i in range(samples):
        r = transform.r2 * i / (samples - 1)
        r_prime = radial_forward(transform, r)
        rows.append((r * 1e3, r_prime * 1e3, radial_inverse(transform, r_prime) * 1e3))
    return ["r_mm", "r_prime_mm", "r_back_mm"], rows


def _pb_phase(doc: dict, where: str):
    from .companions import StripProfile, pb_phase, strip_height

    _require_keys(doc, where, ("amplitude", "period_mm"), ("sigma", "samples"))
    sigma = doc.get("sigma", 1)
    if sigma not in (1, -1):
        raise ConfigError(f"sigma: expected 1 or -1, got {sigma!r}")
    profile = StripProfile(
        _parse_number(doc["amplitude"], "amplitude"),
        _parse_number(doc["period_mm"], "period_mm") * 1e-3,
        sigma,
    )
    samples = _parse_samples(doc)
    xs = [profile.period * i / (samples - 1) for i in range(samples)]
    rows = [(x * 1e3, strip_height(profile, x) * 1e3, pb_phase(profile, x)) for x in xs]
    return ["x_mm", "height_mm", "phase_rad"], rows


def _grating(doc: dict, where: str):
    from .companions import grating_angle

    _require_keys(doc, where, ("wavelength_mm", "period_mm"), ("max_order",))
    wavelength = _parse_number(doc["wavelength_mm"], "wavelength_mm") * 1e-3
    period = _parse_number(doc["period_mm"], "period_mm") * 1e-3
    max_order = doc.get("max_order", 3)
    if isinstance(max_order, bool) or not isinstance(max_order, int) or max_order < 0:
        raise ConfigError(f"max_order: expected an integer >= 0, got {max_order!r}")
    rows = []
    for m in range(-max_order, max_order + 1):
        try:
            rows.append((m, math.degrees(grating_angle(m, wavelength, period)), None))
        except EvanescentOrderError as exc:
            rows.append((m, None, _error_tag(exc)))
    return ["m", "theta_deg", "err"], rows


# Subcommand -> (help, table function or one per submode). A table function
# takes the parsed JSON config and its name and returns (header, rows).
_TABLE_COMMANDS = {
    "select-cell": ("nearest unit-cell state to a target reflection", _select_cell),
    "coding-set": ("N-bit coding set from a reflection map", _coding_set),
    "companion": (
        "closed-form auxiliary models",
        {"to-map": _to_map, "pb-phase": _pb_phase, "grating": _grating},
    ),
}


# ------------------------------------------------------------------ driver


def _cmd_sweep(args) -> int:
    if args.scenario is not None and args.config is not None:
        raise ConfigError("give either --config or --scenario builtin, not both")
    if args.scenario is not None:
        config = builtin_scenario()
    elif args.config is not None:
        config = parse_scenario(args.config)
    else:
        raise ConfigError("a config is required: --config <path> or --scenario builtin")
    out = args.out or config.output_path
    if out is None:
        raise ConfigError("an output path is required: --out <path>")
    if args.command == "simulate":
        mode, kind = None, "simulate"
    else:
        mode = config.mode if args.mode is None else Mode(args.mode)
        if mode is None:
            raise ConfigError(_NO_MODE)
        kind = f"synthesize-{mode.value}"
    ok = 0

    def counted(rows):
        nonlocal ok
        for row in rows:
            ok += not row[-1]  # err
            yield row

    emit(counted(_sweep(config, mode)), kind, config.output_format, Path(out))
    return 0 if ok else 2  # every axis has a point, so the grid is never empty


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="planemirage",
        description="Layered-environment reflection and metasurface illusion synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sweep_parser(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON scenario config")
        p.add_argument(
            "--scenario", choices=["builtin"], help="use the bundled demonstration scenario"
        )
        p.add_argument("--out", type=Path, help="output file (csv or svg per config)")
        return p

    add_sweep_parser("simulate", "total reflection of both stacks over the sweep grid")
    p_syn = add_sweep_parser("synthesize", "synthesized sheet state over the sweep grid")
    p_syn.add_argument(
        "--mode",
        choices=["reflective", "transmissive"],
        help="override the config's synthesis mode",
    )

    for name, (help_text, table) in _TABLE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(table, dict):
            p.add_argument("submode", choices=list(table))
        p.add_argument("--config", type=Path, required=True)
        p.add_argument("--out", type=Path, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command in ("simulate", "synthesize"):
            return _cmd_sweep(args)
        table = _TABLE_COMMANDS[args.command][1]
        if isinstance(table, dict):
            table = table[args.submode]
        header, rows = table(_load_json(args.config), str(args.config))
        _write_csv(args.out, header, map(_cells, rows), ",".join)
        return 0
    except ConfigError as exc:
        print(f"planemirage: config error: {exc}", file=sys.stderr)
        return 1
    except GridPointFault as exc:
        print(f"planemirage: internal error at {exc}", file=sys.stderr)
        return 3
    except (PlanemirageError, OSError) as exc:
        print(f"planemirage: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
