"""planemirage: plane-wave reflection from layered 1D environments and the
synthesis of metasurface states that make one environment scatter like
another.

The public API re-exports the core types and operations; the submodules
group them by concern:

  wavecore    media, stacks, wave states, the reflection recursion
  gstc        sheet descriptions of a reflection (impedance, susceptibility)
  synthesis   illusion synthesis (reflective and transmissive), by
              inverting the reflection recursion, and the sheet step
  unitcell    tunable-cell reflection maps, state selection, coding sets
  companions  radial transform, strip profile, geometric phase, grating
  cli         command-line front end
"""

from .companions import (
    RadialTransform,
    StripProfile,
    grating_angle,
    pb_phase,
    radial_forward,
    radial_inverse,
    strip_height,
)
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
from .unitcell import (
    CodingSet,
    ReflectionMap,
    UnitCellRecord,
    build_coding_set,
    load_reflection_map,
    load_sample_map,
    select_state,
)
from .wavecore import (
    AIR,
    C0,
    ETA0,
    Layer,
    LayerWaveState,
    Medium,
    Open,
    Pec,
    PlaneWave,
    Sheet,
    Stack,
    angle_walk,
    chain_reflection,
    chain_segments,
    fold_reflection,
    frequency_step,
    incident_wave_state,
    interface_reflection,
    layer_wave_state,
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
    "LayerWaveState",
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
    "chain_segments",
    "fold_reflection",
    "frequency_step",
    "front_sheet_reflection",
    "grating_angle",
    "impedance_from_reflection",
    "incident_wave_state",
    "interface_reflection",
    "layer_wave_state",
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
]
