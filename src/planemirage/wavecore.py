"""Plane-wave propagation through a 1D layered stack.

One walk from the incident side per angle (angle_walk) gives each layer's
interface reflection rho_n and round trip a_n = 2 s l cos, plus the
termination reflection. It carries s_t and n = eta*cos from layer to layer
as plain complex values: layer_wave_state, the one refraction step, gives
(s, eta, cos) in each layer and in an Open half-space, and one scalar step
forms each interface reflection. Each medium's s = sqrt(eps*mu) and eta are
formed once, on first use, and kept on the Medium (Medium.wave_constants);
per angle the walk forms only what depends on s_t. walk_reflections folds
a list of walks into their total reflections at one vacuum wavenumber k0
with the Airy/Rouard recursion, taking each round-trip factor
Z_n^2 = e^{-j k0 a_n} as the fold reaches layer n, and gives None for a
walk whose fold or close fails. It is the only forward fold loop: a sweep
folds every walk of a frequency with one call, and walk_reflection, its
one-walk form that raises the failure's typed error, serves the tagging
rules, both inversions' front step and the substitution checks.

Conventions (fixed across the toolkit):
  - time factor e^{+j w t}; passive lossy media carry Im(eps_r) <= 0
  - principal complex square roots; per-layer cos(theta) keeps Re >= 0,
    and the evanescent branch is chosen to decay toward the termination
  - reflection coefficients are ratios of transverse E-field amplitudes,
    referenced at the front face of the first layer (z = 0)
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from functools import cached_property

from ._value import Value, _positive, _require_finite
from .errors import (
    DegenerateInterfaceError,
    DomainError,
    InvalidMediumError,
    ResonantSingularityError,
    ValidationError,
)

C0 = 299792458.0            # vacuum speed of light, m/s
ETA0 = 376.730313668        # vacuum wave impedance, ohms

_DENOM_FLOOR = 1e-300


class Medium(Value):
    """Homogeneous medium given by relative permittivity and permeability.

    Its wave constants (s, eta) are formed on first use and kept; they are
    not fields, so equality, hash, repr, copy and pickle see only eps_r and
    mu_r, and a copy forms its own on first use.
    """

    __slots__ = ("eps_r", "mu_r", "__dict__")  # __dict__ keeps the cached wave constants

    def __init__(self, eps_r: complex, mu_r: complex = 1.0 + 0.0j) -> None:
        eps = complex(eps_r)
        mu = complex(mu_r)
        if not (cmath.isfinite(eps) and cmath.isfinite(mu)):
            raise InvalidMediumError(f"non-finite medium parameters: eps_r={eps!r} mu_r={mu!r}")
        # refraction divides by s = sqrt(eps*mu), so the product must not underflow either
        if eps * mu == 0 or not cmath.isfinite(eps * mu):
            raise InvalidMediumError(
                f"eps_r*mu_r must be nonzero and finite: eps_r={eps!r} mu_r={mu!r}"
            )
        # and the wave impedance is ETA0*sqrt(mu/eps), so neither may the ratio
        if mu / eps == 0 or not cmath.isfinite(mu / eps):
            raise InvalidMediumError(
                f"mu_r/eps_r must be nonzero and finite: eps_r={eps!r} mu_r={mu!r}"
            )
        super().__init__(eps, mu)

    @cached_property
    def wave_constants(self) -> tuple[complex, complex]:
        """(s, eta): the wavenumber s = sqrt(eps*mu) in units of the vacuum
        wavenumber k0, and the wave impedance eta = ETA0*sqrt(mu/eps) (ohms)."""
        return cmath.sqrt(self.eps_r * self.mu_r), ETA0 * cmath.sqrt(self.mu_r / self.eps_r)


AIR = Medium(1.0 + 0.0j)


class Layer(Value):
    """A slab of medium; thickness in meters."""

    __slots__ = ("medium", "thickness")

    def __init__(self, medium: Medium, thickness: float) -> None:
        t = float(thickness)
        if not (math.isfinite(t) and t >= 0.0):
            raise ValidationError(f"layer thickness must be finite and >= 0, got {t!r}")
        super().__init__(medium, t)


class Pec(Value):
    """Perfectly conducting wall."""

    __slots__ = ()


class Open(Value):
    """Semi-infinite half-space behind the last layer."""

    __slots__ = ("half_space",)

    def __init__(self, half_space: Medium = AIR) -> None:
        super().__init__(half_space)


class Sheet(Value):
    """Engineered boundary with a prescribed reflection coefficient."""

    __slots__ = ("rho",)

    def __init__(self, rho: complex) -> None:
        super().__init__(_require_finite("sheet reflection", complex(rho)))


Termination = Pec | Open | Sheet


class Mode(Enum):
    """Where a synthesized sheet sits: in place of the actual stack's
    termination (reflective) or ahead of its first interface (transmissive)."""

    REFLECTIVE = "reflective"
    TRANSMISSIVE = "transmissive"


class Stack(Value):
    """Ordered slabs in front of a termination, met from incident_medium."""

    __slots__ = ("incident_medium", "layers", "termination")

    def __init__(
        self, incident_medium: Medium, layers: tuple[Layer, ...], termination: Termination
    ) -> None:
        layers = tuple(layers)
        if not layers:
            raise ValidationError("a stack needs at least one layer")
        if not isinstance(termination, (Pec, Open, Sheet)):
            raise ValidationError(f"unknown termination: {termination!r}")
        super().__init__(incident_medium, layers, termination)


class PlaneWave(Value):
    """A TM plane wave of frequency (Hz) incident at theta1 (radians)."""

    __slots__ = ("frequency", "theta1", "polarization")

    def __init__(self, frequency: float, theta1: float = 0.0, polarization: str = "TM") -> None:
        f = _positive("frequency", frequency)
        th = float(theta1)
        if not (0.0 <= th < math.pi / 2.0):
            raise ValidationError(f"incidence angle must satisfy 0 <= theta < pi/2, got {th!r}")
        if polarization != "TM":
            raise ValidationError(f"only TM polarization is supported, got {polarization!r}")
        super().__init__(f, th, polarization)

    @property
    def k0(self) -> float:
        """Vacuum wavenumber 2*pi*f/c, rad/m."""
        return 2.0 * math.pi * self.frequency / C0


def _incident(medium: Medium, theta1: float) -> tuple[complex, complex, complex, complex]:
    """(s, s_t, eta, cos) of the wave incident at angle theta1 (radians) in medium."""
    s, eta = medium.wave_constants
    theta = complex(theta1)
    return s, s * cmath.sin(theta), eta, cmath.cos(theta)


def layer_wave_state(medium: Medium, s_t: complex) -> tuple[complex, complex, complex]:
    """(s, eta, cos) inside medium of the wave whose transverse index
    s_t = s*sin(theta) every region of a stack shares: the walk's one
    refraction step."""
    s, eta = medium.wave_constants
    sin_t = s_t / s
    cos_t = cmath.sqrt(1.0 - sin_t * sin_t)
    # Principal branch keeps Re(cos) >= 0 except across the evanescent cut;
    # on the Re = 0 branch pick the solution decaying toward the termination.
    if cos_t.real < 0.0 or (cos_t.real == 0.0 and (s * cos_t).imag > 0.0):
        cos_t = -cos_t
    return s, eta, cos_t


def _reflect(n1: complex, n2: complex) -> complex:
    """(n2 - n1)/(n2 + n1), or DegenerateInterfaceError where the sum vanishes."""
    den = n2 + n1
    if math.hypot(den.real, den.imag) < _DENOM_FLOOR:
        raise DegenerateInterfaceError(f"interface denominator vanished: {den!r}")
    return (n2 - n1) / den


Walk = tuple[tuple[tuple[complex, complex], ...], complex]  # ((rho_n, a_n), ...), rho_T


def angle_walk(stack: Stack, theta1: float) -> Walk:
    """Walk the stack once from the incident side at angle theta1 (radians).

    Every medium is non-dispersive, so nothing here depends on frequency.
    Returns the per-layer pairs (rho_n, a_n), where rho_n reflects at the
    interface in front of layer n and a_n = 2 s_n l_n cos_n is the round
    trip across it in units of 1/k0, and the termination reflection rho_T
    seen from inside the last layer. A PEC wall forces the total transverse
    E field to zero, so rho_T = -1; an open half-space reflects with the
    local interface coefficient (zero when it matches the last layer); a
    sheet carries its own value.

    A round trip past the float range has no phase a float can carry. A
    layer that decays toward the termination keeps its attenuation, as
    a_n = j Im(a_n), and hides what lies behind it wherever that
    underflows; a lossless or gain layer raises DomainError.
    """
    steps = []
    _, s_t, eta, cos_t = _incident(stack.incident_medium, theta1)
    n = eta * cos_t
    for layer in stack.layers:
        s, eta, cos_t = layer_wave_state(layer.medium, s_t)
        n_next = eta * cos_t
        rho = _reflect(n, n_next)
        a = s * (2.0 * layer.thickness) * cos_t
        if not cmath.isfinite(a):
            decay = (s * cos_t).imag
            if not decay < 0.0:
                raise DomainError("the round trip across a layer leaves the float range")
            a = complex(0.0, 2.0 * (layer.thickness * decay))
        steps.append((rho, a))
        n = n_next
    term = stack.termination
    if isinstance(term, Pec):
        rho_t = -1.0 + 0.0j
    elif isinstance(term, Sheet):
        rho_t = term.rho
    else:
        _, eta_h, cos_h = layer_wave_state(term.half_space, s_t)
        rho_t = _reflect(n, eta_h * cos_h)
    return tuple(steps), rho_t


def walk_reflections(
    walks: list[Walk] | tuple[Walk, ...], k0: float, _pairs: bool = False
) -> list[complex | tuple[complex, complex] | None]:
    """The total reflection of each angle walk at vacuum wavenumber k0, in
    order: a list with walk_reflection's value for each walk, or None where
    walk_reflection raises. It is the fold's one loop; a sweep folds every
    walk of a frequency in one call.

    Each walk is folded by the Airy/Rouard recursion from the back,

        Gamma_n = (rho_n + Z_n^2 Gamma_{n+1}) / (1 + rho_n Z_n^2 Gamma_{n+1}),

    starting from Gamma_{N+1} = rho_T, taking each round trip
    Z_n^2 = e^{-j k0 a_n} when the fold reaches layer n. Gamma is carried
    as a pair p/q, so an infinite intermediate value passes through and
    only the total can be singular. Only Z^2 appears, never 1/Z, so a layer
    thick enough for Z^2 to underflow simply hides everything behind it.
    A walk fails where a round trip overflows or has no value (gain layers,
    or a phase k0 Re(a_n) past the float range), and where its total fails
    _close. What fails is not said; walk_reflection of that walk raises it.
    """
    exp, hypot, isfinite = cmath.exp, math.hypot, cmath.isfinite
    jk0 = -1j * k0
    out = []
    for steps, p in walks:
        q = 1.0
        try:
            for rho, a in reversed(steps):
                w = exp(jk0 * a) * p
                p, q = rho * q + w, q + rho * w
        except (OverflowError, ValueError):
            out.append(None)
            continue
        if _pairs:  # private: the unclosed (p, q), for a caller that folds one more layer in front
            out.append((p, q))
            continue
        # _close's own first case, inline: a finite quotient over the floor needs no call
        if hypot(q.real, q.imag) >= _DENOM_FLOOR:
            gamma = p / q
            if isfinite(gamma):
                out.append(gamma)
                continue
        try:
            out.append(_close(p, q))
        except (ResonantSingularityError, DomainError):
            out.append(None)
    return out


def walk_reflection(walk: Walk, k0: float, *, _pair: bool = False) -> complex:
    """Total reflection of an angle walk at vacuum wavenumber k0: the one
    walk of walk_reflections, with the failure named. A round trip that
    overflows or has no value, or a total that is not finite, raises
    DomainError; a total whose denominator vanishes raises
    ResonantSingularityError.
    """
    (pair,) = walk_reflections((walk,), k0, _pairs=True)
    if pair is None:
        raise DomainError("the propagation factor of a round trip is not finite")
    if _pair:  # private: the unclosed (p, q), for a caller that folds one more layer in front
        return pair
    return _close(*pair)


def _close(p: complex, q: complex) -> complex:
    """The total reflection p/q of a folded pair, by the fold's one close
    rule: a q under the floor raises ResonantSingularityError, and a total
    that is not finite raises DomainError."""
    # hypot, unlike abs, gives inf instead of raising when gain layers push |q| past the float range
    if math.hypot(q.real, q.imag) < _DENOM_FLOOR:
        raise ResonantSingularityError("total-reflection denominator vanished")
    gamma = p / q
    if not cmath.isfinite(gamma):
        # Parts of p and q near the float limit can overflow the division
        # although their ratio is finite. Scaling both by one power of two
        # is exact and leaves the ratio alone.
        if cmath.isfinite(p) and cmath.isfinite(q):
            m = max(abs(p.real), abs(p.imag), abs(q.real), abs(q.imag))
            scale = math.ldexp(1.0, -math.frexp(m)[1])
            gamma = (p * scale) / (q * scale)
        if not cmath.isfinite(gamma):
            raise DomainError("the total reflection overflows at this point")
    return gamma


def chain_reflection(stack: Stack, wave: PlaneWave) -> complex:
    """Total reflection Gamma of the stack at z = 0."""
    return walk_reflection(angle_walk(stack, wave.theta1), wave.k0)
