"""planemirage: plane-wave reflection from layered 1D environments and the
synthesis of metasurface states that make one environment scatter like
another.

The public API re-exports the core types and operations; the submodules
group them by concern:

  wavecore    media, stacks, the sheet placements (Mode), the angle walk
              with its refraction step, and the one reflection recursion
              over walks, folded a frequency at a time
  gstc        sheet descriptions of a reflection (impedance, susceptibility)
  synthesis   illusion synthesis (reflective and transmissive), by
              inverting the recursion over the actual stack's angle walk,
              and the sheet step
  unitcell    tunable-cell reflection maps, state selection, coding sets
  companions  radial transform, strip profile, geometric phase, grating
  config      scenario configs read from JSON into SI units
  sweep       scenario values and the (theta, frequency) sweep loop
  output      every file a command writes: the CSV/SVG sweep tables and the
              table commands' CSV
  tables      the table commands (select-cell, coding-set, companion)
  cli         the planemirage command line (argparse, exit codes, the sweep
              driver)

`import planemirage` loads no submodule. Each public name, and each
submodule that re-exports names, is imported on its first use; cli loads
tables only when a table command runs, and config only when a command reads
a config file.
"""

__version__ = "0.1.0"

# Each submodule and the public names the package re-exports from it, the one
# listing of those names: __all__, dir() and __getattr__ all read it.
_EXPORTS = {
    "errors": (
        "ConfigError",
        "DegenerateInterfaceError",
        "DegenerateSynthesisError",
        "DomainError",
        "DuplicateStateError",
        "EmptyMapError",
        "EvanescentOrderError",
        "InfeasibleCodingSetError",
        "InvalidMediumError",
        "MapFormatError",
        "MissingFrequencyError",
        "OpenCircuitError",
        "PlanemirageError",
        "ResonantSingularityError",
        "SheetResonanceError",
        "ValidationError",
        "WriteError",
    ),
    "wavecore": (
        "AIR",
        "C0",
        "ETA0",
        "Layer",
        "Medium",
        "Mode",
        "Open",
        "Pec",
        "PlaneWave",
        "Sheet",
        "Stack",
        "angle_walk",
        "chain_reflection",
        "walk_reflection",
        "walk_reflections",
    ),
    "gstc": (
        "impedance_from_reflection",
        "susceptibility_from_reflection",
    ),
    "synthesis": (
        "IllusionProblem",
        "front_sheet_reflection",
        "reflective_inversion",
        "sheet_state",
        "sheet_terminated_reflection",
        "synthesize",
        "transmissive_inversion",
    ),
    "unitcell": (
        "CodingSet",
        "ReflectionMap",
        "UnitCellRecord",
        "build_coding_set",
        "load_reflection_map",
        "load_sample_map",
        "select_state",
    ),
    "companions": (
        "RadialTransform",
        "StripProfile",
        "grating_angle",
        "pb_phase",
        "radial_forward",
        "radial_inverse",
        "strip_height",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    # PEP 562: a name's submodule is imported on first use, which binds the
    # submodule here (importlib would also load warnings); the name is kept.
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
