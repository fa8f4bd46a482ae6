"""Command-line front end: argparse, the table commands and exit codes.

Subcommands:

  simulate     total reflection of both stacks over a (theta, frequency) grid
  synthesize   the same grid plus the synthesized sheet state per point
  select-cell  nearest unit-cell state to a target reflection
  coding-set   N-bit coding set from a reflection map
  companion    closed-form auxiliary models (to-map, pb-phase, grating)

Each subcommand reads a JSON config (--config) or, for the sweep commands,
the bundled demonstration scenario (--scenario builtin), and writes CSV or
SVG to --out. The sweep commands read their config through
planemirage.config, run the sweep loop of planemirage.sweep and write its
rows through planemirage.output, which writes every command's file.

Exit codes: 0 success; 1 configuration, data, or I/O error; 2 when every
grid point of a sweep failed, that is when emit wrote as many rows with an
err tag as the grid has points; 3 when a grid point raised an exception that
is not a PlanemirageError, a fault of the program: one stderr line names
the point (f, theta) and the exception, and no output file is written.

main builds its argparse parser on its first call and reuses it in later
calls from the same process. A command imports only what it runs: the
table commands import unitcell or companions when they run, and json is
loaded only where a config is read.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from functools import cache
from pathlib import Path

from .errors import ConfigError, EvanescentOrderError, PlanemirageError
from .config import _load_json, _parse_complex, _parse_number, _require_keys, parse_scenario
from .output import _cells, _write_lines, emit
from .sweep import _NO_MODE, GridPointFault, _error_tag, _sweep, builtin_scenario
from .synthesis import Mode


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
    samples = _parse_samples(doc)
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
    samples = _parse_samples(doc)
    xs = [profile.period * i / (samples - 1) for i in range(samples)]
    rows = [(x * 1e3, strip_height(profile, x) * 1e3, pb_phase(profile, x)) for x in xs]
    return "x_mm,height_mm,phase_rad", rows


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
    return "m,theta_deg,err", rows


# Subcommand -> (help, table function or one per submode). A table function
# takes the parsed JSON config and its name and returns (header line, rows).
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
    mode = None
    if args.command == "synthesize":
        mode = config.mode if args.mode is None else Mode(args.mode)
        if mode is None:
            raise ConfigError(_NO_MODE)
    tagged = emit(_sweep(config, mode), mode, config.output_format, Path(out))
    return 2 if tagged == config.theta_deg.count * config.freq_ghz.count else 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and kept for later calls."""
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in ("simulate", "synthesize"):
            return _cmd_sweep(args)
        table = _TABLE_COMMANDS[args.command][1]
        if isinstance(table, dict):
            table = table[args.submode]
        header, rows = table(_load_json(args.config), str(args.config))
        _write_lines(args.out, [header, *map(",".join, map(_cells, rows))])
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
