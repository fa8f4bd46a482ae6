"""planemirage: plane-wave reflection from layered 1D environments and the
synthesis of metasurface states that make one environment scatter like
another.

The public API re-exports the core types and operations; the submodules
group them by concern:

  wavecore    media, stacks, the angle walk with its refraction step, and
              the one reflection recursion over it
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

unitcell and companions are imported on first use of one of their names;
cli loads tables only when a table command runs, and config only when a
command reads a config file.
"""

from .errors import (
    ConfigError,
    DegenerateInterfaceError,
    DegenerateSynthesisError,
    DomainError,
    DuplicateStateError,
    EmptyMapError,
    EvanescentOrderError,
    InfeasibleCodingSetError,
    InvalidMediumError,
    MapFormatError,
    MissingFrequencyError,
    OpenCircuitError,
    PlanemirageError,
    ResonantSingularityError,
    SheetResonanceError,
    ValidationError,
    WriteError,
)
from .gstc import impedance_from_reflection, susceptibility_from_reflection
from .synthesis import (
    IllusionProblem,
    Mode,
    front_sheet_reflection,
    reflective_inversion,
    sheet_state,
    sheet_terminated_reflection,
    synthesize,
    transmissive_inversion,
)
from .wavecore import (
    AIR,
    C0,
    ETA0,
    Layer,
    Medium,
    Open,
    Pec,
    PlaneWave,
    Sheet,
    Stack,
    angle_walk,
    chain_reflection,
    walk_reflection,
)

__version__ = "0.1.0"

__all__ = [
    "AIR",
    "C0",
    "ETA0",
    "CodingSet",
    "ConfigError",
    "DegenerateInterfaceError",
    "DegenerateSynthesisError",
    "DomainError",
    "DuplicateStateError",
    "EmptyMapError",
    "EvanescentOrderError",
    "IllusionProblem",
    "InfeasibleCodingSetError",
    "InvalidMediumError",
    "Layer",
    "MapFormatError",
    "Medium",
    "MissingFrequencyError",
    "Mode",
    "Open",
    "OpenCircuitError",
    "Pec",
    "PlaneWave",
    "PlanemirageError",
    "RadialTransform",
    "ReflectionMap",
    "ResonantSingularityError",
    "Sheet",
    "SheetResonanceError",
    "Stack",
    "StripProfile",
    "UnitCellRecord",
    "ValidationError",
    "WriteError",
    "angle_walk",
    "build_coding_set",
    "chain_reflection",
    "front_sheet_reflection",
    "grating_angle",
    "impedance_from_reflection",
    "load_reflection_map",
    "load_sample_map",
    "pb_phase",
    "radial_forward",
    "radial_inverse",
    "reflective_inversion",
    "select_state",
    "sheet_state",
    "sheet_terminated_reflection",
    "strip_height",
    "susceptibility_from_reflection",
    "synthesize",
    "transmissive_inversion",
    "walk_reflection",
]


# No sweep needs these two modules, so the package imports them on first use
# of one of their names (PEP 562).
_LAZY = {
    "CodingSet": "unitcell",
    "ReflectionMap": "unitcell",
    "UnitCellRecord": "unitcell",
    "build_coding_set": "unitcell",
    "load_reflection_map": "unitcell",
    "load_sample_map": "unitcell",
    "select_state": "unitcell",
    "RadialTransform": "companions",
    "StripProfile": "companions",
    "grating_angle": "companions",
    "pb_phase": "companions",
    "radial_forward": "companions",
    "radial_inverse": "companions",
    "strip_height": "companions",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
