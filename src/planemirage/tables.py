"""The table commands: select-cell, coding-set and companion.

Each reads a JSON config, through the key and number checks of
planemirage.config, and writes one CSV table through planemirage.output.
planemirage.cli loads this module only when a table command runs, and a
command imports unitcell or companions only when it runs.
"""

from __future__ import annotations

import cmath
import math

from .config import _load_json, _parse_complex, _parse_number, _require_keys
from .errors import ConfigError, EvanescentOrderError
from .output import _cells, _write_lines
from .sweep import MAX_AXIS_POINTS, _error_tag


def _load_map_from_config(doc: dict, where: str):
    from .unitcell import load_reflection_map, load_sample_map

    source = doc["map"]
    if source == "sample":
        return load_sample_map()
    if isinstance(source, str):
        try:
            return load_reflection_map(source)
        except OSError as exc:
            raise ConfigError(f"{where}.map: cannot read {source}: {exc}") from None
    raise ConfigError(f"{where}.map: expected 'sample' or a file path")


def _parse_rho_target(value, where: str) -> complex:
    if isinstance(value, dict):
        _require_keys(value, where, ("amplitude", "phase_deg"))
        amp = _parse_number(value["amplitude"], f"{where}.amplitude")
        phase = _parse_number(value["phase_deg"], f"{where}.phase_deg")
        return amp * cmath.exp(1j * math.radians(phase))
    return _parse_complex(value, where)


def _parse_count(doc: dict, key: str, default: int, low: int, high: int) -> int:
    """doc[key], an integer from low to high; past high a table would hold
    more rows than a sweep axis may have points (MAX_AXIS_POINTS)."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{key}: expected an integer >= {low}, got {value!r}")
    if value > high:
        raise ConfigError(f"{key}: gives more than {MAX_AXIS_POINTS:,} rows")
    return value


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
    return MAP_HEADER, [(rec.f_ghz, rec.r_ohm, rec.c_pf, rec.rho)]


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
    return f"slot,target_phase_rad,{MAP_HEADER}", [
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
    samples = _parse_count(doc, "samples", 101, 2, MAX_AXIS_POINTS)
    rows = []
    for i in range(samples):
        r = transform.r2 * i / (samples - 1)
        r_prime = radial_forward(transform, r)
        rows.append((r * 1e3, r_prime * 1e3, radial_inverse(transform, r_prime) * 1e3))
    return "r_mm,r_prime_mm,r_back_mm", rows


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
    samples = _parse_count(doc, "samples", 101, 2, MAX_AXIS_POINTS)
    xs = [profile.period * i / (samples - 1) for i in range(samples)]
    rows = [(x * 1e3, strip_height(profile, x) * 1e3, pb_phase(profile, x)) for x in xs]
    return "x_mm,height_mm,phase_rad", rows


def _grating(doc: dict, where: str):
    from .companions import grating_angle

    _require_keys(doc, where, ("wavelength_mm", "period_mm"), ("max_order",))
    wavelength = _parse_number(doc["wavelength_mm"], "wavelength_mm") * 1e-3
    period = _parse_number(doc["period_mm"], "period_mm") * 1e-3
    max_order = _parse_count(doc, "max_order", 3, 0, (MAX_AXIS_POINTS - 1) // 2)
    rows = []
    for m in range(-max_order, max_order + 1):
        try:
            rows.append((m, math.degrees(grating_angle(m, wavelength, period)), None))
        except EvanescentOrderError as exc:
            rows.append((m, None, _error_tag(exc)))
    return "m,theta_deg,err", rows


# Subcommand -> table function, or one per submode. A table function takes
# the parsed JSON config and its name and returns (header line, rows). The
# command line lists the same names, with their help, in cli._TABLE_PARSERS.
_TABLE_COMMANDS = {
    "select-cell": _select_cell,
    "coding-set": _coding_set,
    "companion": {"to-map": _to_map, "pb-phase": _pb_phase, "grating": _grating},
}


def _cmd_table(args) -> int:
    """Run the table command that args name and write its CSV table to args.out."""
    table = _TABLE_COMMANDS[args.command]
    if isinstance(table, dict):
        table = table[args.submode]
    header, rows = table(_load_json(args.config), args.config)
    _write_lines(args.out, [header, *map(",".join, map(_cells, rows))])
    return 0
