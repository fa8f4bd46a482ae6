"""Command-line front end: argparse, the exit codes and the sweep driver.

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
rows through planemirage.output, which writes every command's file. The
table commands are planemirage.tables.

Exit codes: 0 success; 1 configuration, data, or I/O error; 2 when every
grid point of a sweep failed, that is when emit wrote as many rows with an
err tag as the grid has points; 3 when a grid point raised an exception that
is not a PlanemirageError, a fault of the program: one stderr line names
the point (f, theta), or only f where a frequency's batch of folds raised
and no walk of it, folded alone, raises, and the exception, and no output
file is written.

main builds its argparse parser on its first call and reuses it in later
calls from the same process. A command imports only what it runs:
planemirage.tables only for a table command, which loads unitcell or
companions only when it needs one, and planemirage.config and json only
where a config is read, so --scenario builtin loads neither.
cli.parse_scenario still names config.parse_scenario, loaded on first read.

run is the process entry of python -m planemirage, python -m
planemirage.cli and the planemirage script; main never freezes the heap.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import cache

from .errors import ConfigError, PlanemirageError
from .output import emit
from .sweep import _NO_MODE, GridPointFault, _sweep, builtin_scenario
from .wavecore import Mode


def __getattr__(name: str):
    # cli.parse_scenario is config.parse_scenario, read through cli by
    # callers such as perfbench; config is loaded on that first read, so a
    # builtin sweep never compiles it.
    if name == "parse_scenario":
        from .config import parse_scenario

        return parse_scenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ------------------------------------------------------------------ driver


def _cmd_sweep(args) -> int:
    if args.scenario is not None and args.config is not None:
        raise ConfigError("give either --config or --scenario builtin, not both")
    if args.scenario is not None:
        config = builtin_scenario()
    elif args.config is not None:
        from .config import parse_scenario

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
    tagged = emit(_sweep(config, mode), mode, config.output_format, out)
    return 2 if tagged == config.theta_deg.count * config.freq_ghz.count else 0


# Subcommand -> (help, submodes). planemirage.tables holds each command's
# table function under the same names; argparse needs them before a command
# runs, and tables is loaded only when one does.
_TABLE_PARSERS = {
    "select-cell": ("nearest unit-cell state to a target reflection", ()),
    "coding-set": ("N-bit coding set from a reflection map", ()),
    "companion": ("closed-form auxiliary models", ("to-map", "pb-phase", "grating")),
}


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
        p.add_argument("--config", help="JSON scenario config")
        p.add_argument(
            "--scenario", choices=["builtin"], help="use the bundled demonstration scenario"
        )
        p.add_argument("--out", help="output file (csv or svg per config)")
        return p

    add_sweep_parser("simulate", "total reflection of both stacks over the sweep grid")
    p_syn = add_sweep_parser("synthesize", "synthesized sheet state over the sweep grid")
    p_syn.add_argument(
        "--mode",
        choices=["reflective", "transmissive"],
        help="override the config's synthesis mode",
    )

    for name, (help_text, submodes) in _TABLE_PARSERS.items():
        p = sub.add_parser(name, help=help_text)
        if submodes:
            p.add_argument("submode", choices=submodes)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in ("simulate", "synthesize"):
            return _cmd_sweep(args)
        from .tables import _cmd_table

        return _cmd_table(args)
    except ConfigError as exc:
        print(f"planemirage: config error: {exc}", file=sys.stderr)
        return 1
    except GridPointFault as exc:
        print(f"planemirage: internal error at {exc}", file=sys.stderr)
        return 3
    except (PlanemirageError, OSError) as exc:
        print(f"planemirage: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Run main on the process's arguments and exit with its code."""
    try:
        sys.exit(main())
    finally:
        # Exit runs full collections over some 12,000 tracked objects whose
        # memory the OS frees anyway; frozen, they are skipped. Files are closed
        # by with blocks, and atexit and the flush of stdout and stderr still run.
        gc.freeze()


if __name__ == "__main__":
    run()
