"""Tunable unit cells: reflection maps over (R, C) states and their selection.

A reflection map is an external dataset tabulating one cell's complex
reflection coefficient versus bias resistance R, capacitance C and
frequency. This module ingests such maps from CSV, picks the state nearest
a requested complex reflection, and assembles N-bit coding sets whose
phases follow a uniform 2*pi/2^N progression.

Record fields keep the file's units (GHz, ohms, pF); nothing downstream
needs them in other scales.
"""

from __future__ import annotations

import cmath
import math
from importlib.resources import files

from ._value import Value, _modulus, _positive, _require_finite
from .errors import (
    DuplicateStateError,
    EmptyMapError,
    InfeasibleCodingSetError,
    MapFormatError,
    MissingFrequencyError,
    ValidationError,
)

MAP_HEADER = "f_ghz,r_ohm,c_pf,rho_re,rho_im"

SAMPLE_MAP_RESOURCE = "sample_reflection_map.csv"


class UnitCellRecord(Value):
    """One tuning state of one cell: bias point and its reflection."""

    __slots__ = ("f_ghz", "r_ohm", "c_pf", "rho")

    def __init__(self, f_ghz: float, r_ohm: float, c_pf: float, rho: complex) -> None:
        super().__init__(
            _positive("frequency", f_ghz),
            _positive("resistance", r_ohm),
            _positive("capacitance", c_pf),
            _require_finite("reflection", complex(rho)),
        )

    @property
    def key(self) -> tuple[float, float, float]:
        return (self.f_ghz, self.r_ohm, self.c_pf)


class ReflectionMap(Value):
    """All ingested records, with the distinct frequencies they cover."""

    __slots__ = ("records", "frequencies")

    def __init__(self, records: tuple[UnitCellRecord, ...]) -> None:
        records = tuple(records)
        if not records:
            raise EmptyMapError("reflection map holds no records")
        seen: set[tuple[float, float, float]] = set()
        for rec in records:
            if rec.key in seen:
                raise DuplicateStateError(
                    f"duplicate state (f={rec.f_ghz}, R={rec.r_ohm}, C={rec.c_pf})"
                )
            seen.add(rec.key)
        super().__init__(records, tuple(sorted({rec.f_ghz for rec in records})))

    def records_at(self, frequency: float) -> tuple[UnitCellRecord, ...]:
        """All records at one frequency; the frequency must be present."""
        frequency = float(frequency)
        out = tuple(rec for rec in self.records if rec.f_ghz == frequency)
        if not out:
            raise MissingFrequencyError(
                f"no records at {frequency} GHz; map covers {self.frequencies}"
            )
        return out


class CodingSet(Value):
    """2^n_bit states whose target phases step uniformly by 2*pi/2^n_bit."""

    __slots__ = ("n_bit", "states", "target_phases")

    def __init__(
        self, n_bit: int, states: tuple[UnitCellRecord, ...], target_phases: tuple[float, ...]
    ) -> None:
        if not (isinstance(n_bit, int) and n_bit >= 1):
            raise ValidationError(f"n_bit must be an integer >= 1, got {n_bit!r}")
        states = tuple(states)
        phases = tuple(float(p) for p in target_phases)
        count = len(states)
        # 2^n_bit is formed only once it is known to be as short as count
        if count.bit_length() != n_bit + 1 or count != 2**n_bit or len(phases) != count:
            raise ValidationError(
                f"coding set needs exactly {_state_count(n_bit)} states and phases, "
                f"got {len(states)}/{len(phases)}"
            )
        if len({rec.key for rec in states}) != count:
            raise ValidationError("coding set states must be distinct")
        step = 2.0 * math.pi / count
        for a, b in zip(phases, phases[1:]):
            if abs((b - a) - step) > 1e-12:
                raise ValidationError("target phases must step uniformly by 2*pi/2^n_bit")
        super().__init__(n_bit, states, phases)


def _state_count(n_bit: int) -> str:
    """2^n_bit for a message: in digits up to 64 bits, past that as the power."""
    return str(2**n_bit) if n_bit <= 64 else f"2^{n_bit}"


def wrapped_phase_distance(phi_a: float, phi_b: float) -> float:
    """Distance between angles on the circle, in [0, pi]."""
    return abs((phi_a - phi_b + math.pi) % (2.0 * math.pi) - math.pi)


def _parse_map(text: str, source: str) -> ReflectionMap:
    lines = text.splitlines()
    if not lines or lines[0] != MAP_HEADER:
        raise MapFormatError(
            f"{source}: first line must be the header {MAP_HEADER!r}"
        )
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue  # tolerate a trailing blank line
        parts = line.split(",")
        if len(parts) != 5:
            raise MapFormatError(f"{source}:{lineno}: expected 5 fields, got {len(parts)}")
        try:
            f, r, c, re_, im = (float(p) for p in parts)
        except ValueError as exc:
            raise MapFormatError(f"{source}:{lineno}: {exc}") from None
        try:
            records.append(UnitCellRecord(f, r, c, complex(re_, im)))
        except ValidationError as exc:
            raise MapFormatError(f"{source}:{lineno}: {exc}") from None
    if not records:
        raise EmptyMapError(f"{source}: no data rows")
    return ReflectionMap(records=tuple(records))


def load_reflection_map(path) -> ReflectionMap:
    """Read a reflection-map CSV (header `f_ghz,r_ohm,c_pf,rho_re,rho_im`)."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MapFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return _parse_map(text, path)


def load_sample_map() -> ReflectionMap:
    """The small synthetic map shipped with the package."""
    text = files("planemirage.data").joinpath(SAMPLE_MAP_RESOURCE).read_text("utf-8")
    return _parse_map(text, SAMPLE_MAP_RESOURCE)


def select_state(
    reflection_map: ReflectionMap,
    frequency: float,
    rho_target: complex,
    phase_only: bool = False,
) -> UnitCellRecord:
    """The record at `frequency` nearest `rho_target`.

    Distance is complex-plane Euclidean, or wrapped phase distance when
    phase_only is set; a distance past the float range is inf and ranks
    last. Ties break toward smaller R, then smaller C.
    """
    rho_target = _require_finite("rho_target", complex(rho_target))
    candidates = reflection_map.records_at(frequency)
    if phase_only:
        phi_t = cmath.phase(rho_target)

        def dist(rec: UnitCellRecord) -> float:
            return wrapped_phase_distance(cmath.phase(rec.rho), phi_t)

    else:

        def dist(rec: UnitCellRecord) -> float:
            return _modulus(rec.rho - rho_target)

    return min(candidates, key=lambda rec: (dist(rec), rec.r_ohm, rec.c_pf))


def build_coding_set(
    reflection_map: ReflectionMap,
    frequency: float,
    n_bit: int,
    min_amplitude: float = 0.3,
) -> CodingSet:
    """Pick 2^n_bit distinct states tracking a uniform phase progression.

    Admissible states have |rho| >= min_amplitude, an |rho| past the float
    range being inf. The progression anchors at the highest-amplitude
    admissible state's phase (ties toward smaller R, then C); each following
    slot takes the remaining admissible record with minimal wrapped phase
    distance to its target.
    """
    if not (isinstance(n_bit, int) and n_bit >= 1):
        raise ValidationError(f"n_bit must be an integer >= 1, got {n_bit!r}")
    min_amplitude = float(min_amplitude)
    if not (math.isfinite(min_amplitude) and min_amplitude >= 0.0):
        raise ValidationError(f"min_amplitude must be >= 0, got {min_amplitude!r}")
    admissible = [
        rec for rec in reflection_map.records_at(frequency) if _modulus(rec.rho) >= min_amplitude
    ]
    if n_bit >= len(admissible).bit_length():  # 2^n_bit > len(admissible), without forming it
        raise InfeasibleCodingSetError(
            f"need {_state_count(n_bit)} states with |rho| >= {min_amplitude} at {frequency} GHz, "
            f"found {len(admissible)}"
        )
    count = 2**n_bit
    anchor = min(admissible, key=lambda rec: (-_modulus(rec.rho), rec.r_ohm, rec.c_pf))
    phi_0 = cmath.phase(anchor.rho)
    step = 2.0 * math.pi / count
    targets = tuple(phi_0 + k * step for k in range(count))
    remaining = list(admissible)
    chosen = []
    for phi_k in targets:
        best = min(
            remaining,
            key=lambda rec: (
                wrapped_phase_distance(cmath.phase(rec.rho), phi_k),
                rec.r_ohm,
                rec.c_pf,
            ),
        )
        remaining.remove(best)
        chosen.append(best)
    return CodingSet(n_bit=n_bit, states=tuple(chosen), target_phases=targets)
