"""Exception types raised across the toolkit.

Every contract violation maps to a distinct class so callers (and the CLI's
per-point error column) can tell failure modes apart without string matching.
"""

from __future__ import annotations


class PlanemirageError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(PlanemirageError):
    """A value violates a construction invariant (non-finite, out of range)."""


class InvalidMediumError(ValidationError):
    """Medium parameters are non-finite or otherwise unusable."""


class DegenerateInterfaceError(PlanemirageError):
    """Interface denominator eta2*cos2 + eta1*cos1 vanished."""


class ResonantSingularityError(PlanemirageError):
    """The reflection recursion's total denominator vanished at this point."""


class SheetResonanceError(PlanemirageError):
    """Sheet-coefficient denominator vanished for these susceptibilities."""


class OpenCircuitError(PlanemirageError):
    """rho = 1 maps to infinite sheet impedance."""


class DegenerateSynthesisError(PlanemirageError):
    """No termination/front-sheet value can produce the requested reflection."""


class MapFormatError(PlanemirageError):
    """Reflection-map file is malformed; message carries the line number."""


class EmptyMapError(MapFormatError):
    """Reflection-map file contains a header but no records."""


class DuplicateStateError(MapFormatError):
    """Two records share the same (frequency, R, C) triple."""


class MissingFrequencyError(PlanemirageError):
    """Requested frequency has no records in the map."""


class InfeasibleCodingSetError(PlanemirageError):
    """Fewer admissible states than coding slots."""


class DomainError(PlanemirageError):
    """Argument outside an operation's stated domain."""


class EvanescentOrderError(DomainError):
    """|m*lambda/P| > 1: the requested grating order does not propagate."""


class ConfigError(PlanemirageError):
    """Scenario configuration is missing, malformed, or out of range."""


class WriteError(PlanemirageError):
    """Output file could not be written."""
