"""Closed-form companion models: a radial compression map, a sinusoidal
strip profile with its geometric phase, and the grating deflection rule.

All pure real-valued functions; angles in radians, lengths in meters.
"""

from __future__ import annotations

import math

from ._value import Value, _positive, _require_finite
from .errors import DomainError, EvanescentOrderError, ValidationError


class RadialTransform(Value):
    """Piecewise-linear radial map compressing [0, R1*q] onto [0, R1].

    The inner region shrinks by 1/q; the annulus [R1*q, R2] stretches to
    [R1, R2] so the outer boundary stays fixed. Needs q > 1 and R1*q < R2.
    """

    __slots__ = ("r1", "r2", "q")

    def __init__(self, r1: float, r2: float, q: float) -> None:
        r1, r2, q = _positive("r1", r1), _positive("r2", r2), _positive("q", q)
        if not r2 > r1:
            raise ValidationError(f"need r2 > r1, got r1={r1} r2={r2}")
        if not q > 1.0:
            raise ValidationError(f"need q > 1, got {q}")
        if not r1 * q < r2:
            raise ValidationError(f"need r1*q < r2, got r1*q={r1 * q} r2={r2}")
        super().__init__(r1, r2, q)

    @property
    def a(self) -> float:
        """Slope of the outer branch."""
        return (self.r2 - self.r1) / (self.r2 - self.r1 * self.q)

    @property
    def b(self) -> float:
        """Intercept of the outer branch."""
        return (1.0 - self.q) * self.r2 * self.r1 / (self.r2 - self.r1 * self.q)


class StripProfile(Value):
    """Sinusoidal strip of amplitude coefficient A and period P.

    sigma is the circular-polarization handedness (+1 or -1) that sets the
    sign of the geometric phase. The peak height A*(P/2pi) must be a float.
    """

    __slots__ = ("amplitude", "period", "sigma")

    def __init__(self, amplitude: float, period: float, sigma: int = 1) -> None:
        amplitude, period = _positive("amplitude", amplitude), _positive("period", period)
        if sigma not in (1, -1):
            raise ValidationError(f"sigma must be +1 or -1, got {sigma!r}")
        if not math.isfinite(amplitude * (period / (2.0 * math.pi))):
            raise ValidationError(
                f"peak height A*(P/2pi) is past the float range: amplitude {amplitude!r}, period {period!r}"
            )
        super().__init__(amplitude, period, int(sigma))


def _check_radius(t: RadialTransform, name: str, r: float) -> float:
    r = float(r)
    if not (math.isfinite(r) and 0.0 <= r <= t.r2):
        raise DomainError(f"{name} must lie in [0, {t.r2}], got {r!r}")
    return r


def radial_forward(t: RadialTransform, r: float) -> float:
    """Map a physical radius to its compressed image r'.

    r/q on [0, R1*q], a*r + b beyond; continuous at R1*q, fixes R2.
    """
    r = _check_radius(t, "r", r)
    if r <= t.r1 * t.q:
        return r / t.q
    # a*r + b can land one ulp past the fixed rim; keep the image inside the disk
    return min(t.a * r + t.b, t.r2)


def radial_inverse(t: RadialTransform, r_prime: float) -> float:
    """Inverse map: q*r' on [0, R1], (r' - b)/a beyond."""
    r_prime = _check_radius(t, "r_prime", r_prime)
    if r_prime <= t.r1:
        return t.q * r_prime
    return min((r_prime - t.b) / t.a, t.r2)


def strip_height(p: StripProfile, x: float) -> float:
    """Height of the strip centerline: y = A*(P/2pi)*sin(2pi x/P)."""
    x = _require_finite("x", float(x))
    return p.amplitude * (p.period / (2.0 * math.pi)) * math.sin(2.0 * math.pi * x / p.period)


def pb_phase(p: StripProfile, x: float) -> float:
    """Geometric phase imparted at x: Phi = 2*sigma*arctan(A*cos(2pi x/P)).

    Bounded by 2*arctan(A) in magnitude; flips sign with sigma.
    """
    x = _require_finite("x", float(x))
    return 2.0 * p.sigma * math.atan(p.amplitude * math.cos(2.0 * math.pi * x / p.period))


def grating_angle(m: int, wavelength: float, period: float) -> float:
    """Deflection angle of diffraction order m: theta_m = arcsin(m*lambda/P).

    Orders with |m*lambda/P| > 1 are evanescent and raise.
    """
    if not isinstance(m, int):
        raise ValidationError(f"order must be an integer, got {m!r}")
    wavelength, period = _positive("wavelength", wavelength), _positive("period", period)
    s = m * wavelength / period
    if abs(s) > 1.0:
        raise EvanescentOrderError(f"order {m} is evanescent: |m*lambda/P| = {abs(s)} > 1")
    return math.asin(s)
