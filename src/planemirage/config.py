"""Sweep scenario configs read from JSON; no argparse.

parse_scenario reads a config in mm / GHz / degrees, checks every key and
returns the SI ScenarioConfig of planemirage.sweep; a value that a
constructor refuses becomes a ConfigError that names its place in the
config. The table commands of planemirage.tables read their JSON configs
through the same helpers, and json is loaded only when a config is read.
planemirage.cli loads this module only for a command that reads a config,
so a --scenario builtin sweep never compiles it.
"""

from __future__ import annotations

import sys

from .errors import ConfigError, PlanemirageError
from .sweep import ScenarioConfig, SweepAxis
from .synthesis import Mode
from .wavecore import AIR, Layer, Medium, Open, Pec, Sheet, Stack


def _parse_int(digits: str) -> int:
    """json's integer parser, whose refusal says what the config holds.

    int() refuses more digits than sys.get_int_max_str_digits() (4,300 by
    default), and its message advises a call a CLI user cannot make.
    """
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"an integer of more than {sys.get_int_max_str_digits():,} digits") from None


def _load_json(path: str):
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_parse_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    # JSONDecodeError, text not in UTF-8, an int of too many digits, or arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None


def _require_keys(obj, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing required key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _to_float(make, where: str, *values):
    """make(*values), where an integer past the float range is a ConfigError."""
    try:
        return make(*values)
    except OverflowError:
        raise ConfigError(f"{where}: an integer past the float range") from None


def _parse_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return _to_float(float, where, value)


def _parse_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _to_float(complex, where, value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return _to_float(complex, where, *value)
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


def parse_scenario(path: str) -> ScenarioConfig:
    """Read and validate a sweep scenario config (simulate/synthesize)."""
    doc = _load_json(path)
    _require_keys(doc, path, ("actual", "target", "sweep"), ("mode", "output"))
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
