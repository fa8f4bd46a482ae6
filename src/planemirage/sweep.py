"""Scenario sweeps, the library behind simulate and synthesize; no argparse.

A ScenarioConfig, from builtin_scenario or parse_scenario (JSON in mm / GHz /
degrees, converted to SI), holds two stacks, a mode and the (theta, f) grid,
refused before its first point if it would leave the float range.
run_simulate and run_synthesize return SweepRows from one loop that walks
each stack once per angle and folds both walks at every point;
run_synthesize also feeds the actual walk to sheet_state. emit writes the
rows in the table of their mode, None for simulate's, as CSV,
byte-deterministic, or as SVG through planemirage.svg, loaded only then.
Every file is a run of lines that goes through one writer, which spools
them to an anonymous temporary file as they are formed and copies it into
the output path, in place, only after the last line.
"""

from __future__ import annotations

import cmath
import math
import re
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from ._value import Value
from .errors import ConfigError, PlanemirageError, WriteError
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
    walk_reflection,
)

_GRID_NUDGE = 1e-9  # absorbs float noise in (stop - start)/step


class SweepAxis(Value):
    __slots__ = ("start", "stop", "step")

    def __init__(self, start: float, stop: float, step: float) -> None:
        start, stop, step = values = float(start), float(stop), float(step)
        for name, v in zip(self._fields, values):
            if not math.isfinite(v):
                raise ConfigError(f"sweep {name} must be finite, got {v!r}")
        if step <= 0.0:
            raise ConfigError(f"sweep step must be > 0, got {step}")
        if start > stop:
            raise ConfigError(f"sweep start {start} exceeds stop {stop}")
        if not math.isfinite((stop - start) / step):
            raise ConfigError(f"sweep step {step} gives a point count that is not finite")
        super().__init__(*values)

    @property
    def count(self) -> int:
        """The number of grid points, start included, stop where the step meets it."""
        return math.floor((self.stop - self.start) / self.step + _GRID_NUDGE) + 1

    def values(self) -> list[float]:
        return [self.start + i * self.step for i in range(self.count)]


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
        # 2*pi*f in Hz, which PlaneWave.k0 forms first, at the last grid frequency
        f_last = freq_ghz.start + (freq_ghz.count - 1) * freq_ghz.step
        if not math.isfinite(2.0 * math.pi * (f_last * 1e9)):
            raise ConfigError(f"freq_ghz grid ends at {f_last} GHz, where 2*pi*f in Hz is not finite")
        if output_format not in ("csv", "svg"):
            raise ConfigError(f"output format must be csv or svg, got {output_format!r}")
        super().__init__(actual, target, mode, theta_deg, freq_ghz, output_format, output_path)


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


def _build(where: str, make, *args):
    """make(*args), whose PlanemirageError becomes a ConfigError naming where."""
    try:
        return make(*args)
    except PlanemirageError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_medium(obj, where: str) -> Medium:
    _require_keys(obj, where, ("eps",), ("mu",))
    eps = _parse_complex(obj["eps"], f"{where}.eps")
    mu = _parse_complex(obj.get("mu", 1.0), f"{where}.mu")
    return _build(where, Medium, eps, mu)


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
        return _build(where, Sheet, _parse_complex(obj["rho"], f"{where}.rho"))
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
        layers.append(_build(lw, Layer, medium, thickness_mm * 1e-3))
    termination = _parse_termination(obj["termination"], f"{where}.termination")
    return _build(where, Stack, incident, tuple(layers), termination)


def _parse_axis(obj, where: str) -> SweepAxis:
    _require_keys(obj, where, ("start", "stop", "step"))
    bounds = [_parse_number(obj[key], f"{where}.{key}") for key in ("start", "stop", "step")]
    return _build(where, SweepAxis, *bounds)


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


def _round_trips_finite(walk, k0: float) -> bool:
    """Whether an angle walk, not its error tag, has no round trip
    e^{-j k0 a_n} that overflows at k0, formed as the inversions form it."""
    if isinstance(walk, str):
        return False
    jk0 = -1j * k0
    try:
        for _, a in walk[0]:
            cmath.exp(jk0 * a)
    except OverflowError:
        return False
    return True


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
    and each point folds both walks at its k0 with walk_reflection; a
    synthesis reads the actual walk again in its inversion. A point gets
    the same bits as chain_reflection and synthesize. A failed walk is
    tagged at every frequency of its angle. A point is synthesized when
    Gamma_i is known and no round trip of the actual walk overflows at k0,
    even where the actual Gamma failed at its closing division; otherwise
    each failure is tagged once. Any other exception at a point raises
    GridPointFault."""
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
                g_act = _gamma(actual, k0, errs)
                g_tgt = _gamma(target, k0, errs)
                rho_req = aux = passive = None
                if (
                    mode is not None
                    and g_tgt is not None
                    and (g_act is not None or _round_trips_finite(actual, k0))
                ):
                    try:
                        rho_req, aux, passive = sheet_state(mode, actual, k0, g_tgt, cos_theta)
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


# The complex columns of each table, by mode (None: simulate's), carried by
# a row in the order g_act, g_tgt, rho_req, aux. Every table starts with
# freq_ghz,theta_deg and ends with err; a synthesis table puts passive before err.
_TABLES = {
    None: ("g_act", "g_tgt"),
    Mode.REFLECTIVE: ("g_act", "g_tgt", "rho_req", "eta_n"),
    Mode.TRANSMISSIVE: ("g_act", "g_tgt", "rho_req", "chi_e"),
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


def _sweep_table(mode: Mode | None):
    """Header line and row formatter of the sweep table of mode."""
    names = _TABLES[mode]
    synthesis = mode is not None
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

    return ",".join(header), row_line


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Every output file, tables and SVG alike: each of lines, ended by a
    newline. Any OSError of the spool or of path is a WriteError that names
    path; the lines raise none, as a sweep's own faults are GridPointFaults."""
    # Lines are taken 256 at a time, then encoded and written to an
    # anonymous temporary file, so memory holds one batch, not the file.
    # path is opened only after the last line is formed, so a sweep that
    # stops at a point leaves it as it was, and then the spool is copied
    # into it in place: a link stays a link and a file keeps its inode.
    import shutil
    import tempfile

    lines = iter(lines)
    try:
        with tempfile.TemporaryFile() as spool:
            while batch := list(islice(lines, 256)):
                spool.write("\n".join([*batch, ""]).encode())
            spool.seek(0)
            with open(path, "wb") as fh:
                shutil.copyfileobj(spool, fh)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from None


def emit(rows: Iterable[SweepRow], mode: Mode | None, output_format: str, path: Path) -> None:
    """Write the sweep table of mode, None for simulate's, to path as CSV
    (canonical) or SVG (presentation). rows are SweepRows or plain tuples
    in SweepRow's field order, and may be an iterator: a CSV table formats
    each row as it comes, an SVG plot keeps only the points it draws, and
    the file is written once rows are exhausted."""
    if output_format == "csv":
        header, line = _sweep_table(mode)
        lines = chain([header], map(line, rows))
    elif output_format == "svg":
        from .svg import _svg_lines

        lines = _svg_lines(rows, mode)
    else:
        raise ConfigError(f"output format must be csv or svg, got {output_format!r}")
    _write_lines(path, lines)
