"""Zero-thickness sheet descriptions of a synthesized reflection.

A metasurface is reduced to a sheet at a single plane. Its reflection
coefficient rho is described either by the normalized sheet impedance
eta/eta0 or, for an electric-only sheet in free space, by its surface
susceptibility chi_e (meters). Scalar 1D reduction throughout, e^{+j omega t}
convention as in wavecore.

Oblique incidence enters through the replacement k0 -> k0/cos(theta) in the
susceptibility relation, which reduces to the normal-incidence form at
theta = 0 and keeps the reflection/susceptibility pair mutually inverse at
every angle.
"""

from __future__ import annotations

from .errors import OpenCircuitError, SheetResonanceError, ValidationError
from .wavecore import _DENOM_FLOOR, _require_finite


def susceptibility_from_reflection(rho: complex, k0: float, cos_theta: complex) -> complex:
    """chi_e of the electric-only sheet (chi_m = 0) that reflects with
    coefficient rho at vacuum wavenumber k0 and incidence cosine cos_theta:

        chi_e = rho / (j (k0 / (2 cos(theta))) (1 - rho))

    rho = 1 (full transmission-less resonance) has no finite chi_e.
    """
    if not k0 > 0.0:
        raise ValidationError(f"k0 must be positive, got {k0!r}")
    rho = complex(rho)
    cos_theta = complex(cos_theta)
    _require_finite("rho", rho)
    _require_finite("cos_theta", cos_theta)
    if abs(cos_theta) < _DENOM_FLOOR:
        raise ValidationError("cos_theta = 0: grazing incidence has no sheet model")
    kh = (k0 / 2.0) / cos_theta
    den = 1j * kh * (1.0 - rho)
    if abs(den) < _DENOM_FLOOR:
        raise SheetResonanceError("rho = 1 admits no finite electric susceptibility")
    chi_e = rho / den
    _require_finite("chi_e", chi_e)
    return chi_e


def impedance_from_reflection(rho: complex) -> complex:
    """Normalized sheet impedance eta/eta0 = (1 + rho)/(1 - rho) of reflection
    coefficient rho; times wavecore.ETA0 it is in ohms. rho = 1 is an open
    circuit (infinite impedance) and raises. rho = -1 gives 0, the PEC limit.
    """
    rho = complex(rho)
    _require_finite("rho", rho)
    den = 1.0 - rho
    if abs(den) < _DENOM_FLOOR:
        raise OpenCircuitError("rho = 1: open circuit, impedance unbounded")
    return (1.0 + rho) / den
