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

Each public function checks its arguments, then calls a private kernel that
keeps every check a point can still fail: its denominator floor and a finite
result. A synthesis step, whose rho, k0 and cos_theta are sound by
construction, calls the kernels directly.
"""

from __future__ import annotations

import cmath
import math

from ._value import _require_finite
from .errors import OpenCircuitError, SheetResonanceError, ValidationError
from .wavecore import _DENOM_FLOOR


def _incidence(k0: float, cos_theta: complex) -> complex:
    """cos_theta as a complex, once k0 and cos_theta describe an incident wave."""
    if not k0 > 0.0:
        raise ValidationError(f"k0 must be positive, got {k0!r}")
    cos_theta = _require_finite("cos_theta", complex(cos_theta))
    # hypot, unlike abs, gives inf instead of raising for a finite value past the float range
    if math.hypot(cos_theta.real, cos_theta.imag) < _DENOM_FLOOR:
        raise ValidationError("cos_theta = 0: grazing incidence has no sheet model")
    return cos_theta


def _susceptibility(rho: complex, k0: float, cos_theta: complex) -> complex:
    """The kernel of susceptibility_from_reflection: its arguments are checked."""
    kh = (k0 / 2.0) / cos_theta
    den = 1j * kh * (1.0 - rho)
    if math.hypot(den.real, den.imag) < _DENOM_FLOOR:
        raise SheetResonanceError("rho = 1 admits no finite electric susceptibility")
    chi_e = rho / den
    # _require_finite is called only where it raises: a kernel runs at every synthesized point
    return chi_e if cmath.isfinite(chi_e) else _require_finite("chi_e", chi_e)


def susceptibility_from_reflection(rho: complex, k0: float, cos_theta: complex) -> complex:
    """chi_e of the electric-only sheet (chi_m = 0) that reflects with
    coefficient rho at vacuum wavenumber k0 and incidence cosine cos_theta:

        chi_e = rho / (j (k0 / (2 cos(theta))) (1 - rho))

    rho = 1 (full transmission-less resonance) has no finite chi_e.
    """
    cos_theta = _incidence(k0, cos_theta)
    return _susceptibility(_require_finite("rho", complex(rho)), k0, cos_theta)


def _impedance(rho: complex) -> complex:
    """The kernel of impedance_from_reflection: rho is a finite complex."""
    den = 1.0 - rho
    if math.hypot(den.real, den.imag) < _DENOM_FLOOR:
        raise OpenCircuitError("rho = 1: open circuit, impedance unbounded")
    eta_n = (1.0 + rho) / den
    return eta_n if cmath.isfinite(eta_n) else _require_finite("eta_n", eta_n)


def impedance_from_reflection(rho: complex) -> complex:
    """Normalized sheet impedance eta/eta0 = (1 + rho)/(1 - rho) of reflection
    coefficient rho; times wavecore.ETA0 it is in ohms. rho = 1 is an open
    circuit (infinite impedance) and raises. rho = -1 gives 0, the PEC limit.
    A rho whose parts are near the float limit can overflow the quotient,
    which raises ValidationError like a non-finite chi_e.
    """
    return _impedance(_require_finite("rho", complex(rho)))
