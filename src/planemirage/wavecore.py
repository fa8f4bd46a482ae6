"""Plane-wave propagation through a 1D layered stack.

One walk from the incident side per angle (angle_walk) gives each layer's
interface reflection rho_n and round trip a_n = 2 s l cos, plus the
termination reflection; the frequency step turns each a_n into the
round-trip factor Z_n^2 = e^{-j k0 a_n} (chain_segments does both), and
fold_reflection turns the result into the total reflection with the
Airy/Rouard recursion.

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
from dataclasses import dataclass

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


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _require_finite(name: str, z: complex) -> None:
    if not _finite(z):
        raise ValidationError(f"{name} must be finite, got {z!r}")


@dataclass(frozen=True)
class Medium:
    """Homogeneous medium given by relative permittivity and permeability."""

    eps_r: complex
    mu_r: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        eps = complex(self.eps_r)
        mu = complex(self.mu_r)
        if not (_finite(eps) and _finite(mu)):
            raise InvalidMediumError(f"non-finite medium parameters: eps_r={eps!r} mu_r={mu!r}")
        # refraction divides by s = sqrt(eps*mu), so the product must not underflow either
        if eps * mu == 0 or not _finite(eps * mu):
            raise InvalidMediumError(
                f"eps_r*mu_r must be nonzero and finite: eps_r={eps!r} mu_r={mu!r}"
            )
        object.__setattr__(self, "eps_r", eps)
        object.__setattr__(self, "mu_r", mu)


AIR = Medium(1.0 + 0.0j)


@dataclass(frozen=True)
class Layer:
    medium: Medium
    thickness: float  # meters

    def __post_init__(self) -> None:
        t = float(self.thickness)
        if not (math.isfinite(t) and t >= 0.0):
            raise ValidationError(f"layer thickness must be finite and >= 0, got {t!r}")
        object.__setattr__(self, "thickness", t)


@dataclass(frozen=True)
class Pec:
    """Perfectly conducting wall."""


@dataclass(frozen=True)
class Open:
    """Semi-infinite half-space behind the last layer."""

    half_space: Medium = AIR


@dataclass(frozen=True)
class Sheet:
    """Engineered boundary with a prescribed reflection coefficient."""

    rho: complex

    def __post_init__(self) -> None:
        r = complex(self.rho)
        if not _finite(r):
            raise ValidationError(f"sheet reflection must be finite, got {r!r}")
        object.__setattr__(self, "rho", r)


Termination = Pec | Open | Sheet


@dataclass(frozen=True)
class Stack:
    """Ordered slabs in front of a termination, met from incident_medium."""

    incident_medium: Medium
    layers: tuple[Layer, ...]
    termination: Termination

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ValidationError("a stack needs at least one layer")
        if not isinstance(self.termination, (Pec, Open, Sheet)):
            raise ValidationError(f"unknown termination: {self.termination!r}")
        object.__setattr__(self, "layers", layers)


@dataclass(frozen=True)
class PlaneWave:
    frequency: float          # Hz
    theta1: float = 0.0       # incidence angle, radians
    polarization: str = "TM"

    def __post_init__(self) -> None:
        f = float(self.frequency)
        th = float(self.theta1)
        if not (math.isfinite(f) and f > 0.0):
            raise ValidationError(f"frequency must be positive, got {f!r}")
        if not (0.0 <= th < math.pi / 2.0):
            raise ValidationError(f"incidence angle must satisfy 0 <= theta < pi/2, got {th!r}")
        if self.polarization != "TM":
            raise ValidationError(f"only TM polarization is supported, got {self.polarization!r}")
        object.__setattr__(self, "frequency", f)
        object.__setattr__(self, "theta1", th)

    @property
    def k0(self) -> float:
        """Vacuum wavenumber 2*pi*f/c, rad/m."""
        return 2.0 * math.pi * self.frequency / C0


@dataclass(frozen=True)
class LayerWaveState:
    """Wave descriptors inside one region n, with no frequency in them:
    s_n = sqrt(eps*mu), the wavenumber in units of the vacuum wavenumber k0;
    s_t = s_n*sin(angle), its transverse part; the impedance eta_n; and the
    cosine of the angle. s_t is the same in every region of a stack, so
    refraction never needs the angle itself.
    """

    s_n: complex
    s_t: complex
    eta_n: complex          # ohms
    cos_n: complex


def incident_wave_state(medium: Medium, theta1: float) -> LayerWaveState:
    """State of the wave incident at angle theta1 (radians) in the incident half-space."""
    s = cmath.sqrt(medium.eps_r * medium.mu_r)
    eta = ETA0 * cmath.sqrt(medium.mu_r / medium.eps_r)
    theta = complex(theta1)
    return LayerWaveState(s_n=s, s_t=s * cmath.sin(theta), eta_n=eta, cos_n=cmath.cos(theta))


def layer_wave_state(medium: Medium, incident_state: LayerWaveState) -> LayerWaveState:
    """Refract the wave from incident_state's region into medium.

    The transverse part s*sin(theta) is conserved across the interface.
    """
    s = cmath.sqrt(medium.eps_r * medium.mu_r)
    eta = ETA0 * cmath.sqrt(medium.mu_r / medium.eps_r)
    sin_t = incident_state.s_t / s
    cos_t = cmath.sqrt(1.0 - sin_t * sin_t)
    # Principal branch keeps Re(cos) >= 0 except across the evanescent cut;
    # on the Re = 0 branch pick the solution decaying toward the termination.
    if cos_t.real < 0.0 or (cos_t.real == 0.0 and (s * cos_t).imag > 0.0):
        cos_t = -cos_t
    return LayerWaveState(s_n=s, s_t=incident_state.s_t, eta_n=eta, cos_n=cos_t)


def interface_reflection(state_n: LayerWaveState, state_np1: LayerWaveState) -> complex:
    """Reflection coefficient rho = (n2 - n1)/(n2 + n1) at one interface,
    with n_i = eta_i*cos(theta_i)."""
    n1 = state_n.eta_n * state_n.cos_n
    n2 = state_np1.eta_n * state_np1.cos_n
    den = n2 + n1
    if abs(den) < _DENOM_FLOOR:
        raise DegenerateInterfaceError(f"interface denominator vanished: {den!r}")
    return (n2 - n1) / den


Segments = tuple[tuple[complex, complex], ...]
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
    """
    steps = []
    state = incident_wave_state(stack.incident_medium, theta1)
    for layer in stack.layers:
        nxt = layer_wave_state(layer.medium, state)
        rho = interface_reflection(state, nxt)
        steps.append((rho, nxt.s_n * (2.0 * layer.thickness) * nxt.cos_n))
        state = nxt
    term = stack.termination
    if isinstance(term, Pec):
        rho_t = -1.0 + 0.0j
    elif isinstance(term, Sheet):
        rho_t = term.rho
    else:
        rho_t = interface_reflection(state, layer_wave_state(term.half_space, state))
    return tuple(steps), rho_t


def frequency_step(walk: Walk, k0: float) -> tuple[Segments, complex]:
    """An angle walk at vacuum wavenumber k0: each layer's (rho_n, Z_n^2)
    with the round trip Z_n^2 = e^{-j k0 a_n}, and rho_T. DomainError where
    a round trip overflows, as across a thick gain layer."""
    steps, rho_t = walk
    jk0 = -1j * k0
    try:
        return tuple([(rho, cmath.exp(jk0 * a)) for rho, a in steps]), rho_t
    except OverflowError:
        raise DomainError("the propagation factor across a gain layer overflows") from None


def chain_segments(stack: Stack, wave: PlaneWave) -> tuple[Segments, complex]:
    """The stack's per-layer pairs (rho_n, Z_n^2) and rho_T at one wave:
    its angle walk at wave's frequency."""
    return frequency_step(angle_walk(stack, wave.theta1), wave.k0)


def fold_reflection(segments: Segments, rho_t: complex) -> complex:
    """Reflection at the front of segments closed by rho_t.

    Folds the Airy/Rouard recursion from the back,

        Gamma_n = (rho_n + Z_n^2 Gamma_{n+1}) / (1 + rho_n Z_n^2 Gamma_{n+1}),

    starting from Gamma_{N+1} = rho_T. Gamma is carried as a pair p/q, so an
    infinite intermediate value passes through and only the total can be
    singular. Only Z^2 appears, never 1/Z, so a layer thick enough for Z^2
    to underflow simply hides everything behind it. Gain layers can make
    the pair overflow; a total that is not finite raises DomainError.
    """
    p, q = rho_t, 1.0
    for rho, z2 in reversed(segments):
        w = z2 * p
        p, q = rho * q + w, q + rho * w
    # hypot, unlike abs, gives inf instead of raising when gain layers push |q| past the float range
    if math.hypot(q.real, q.imag) < _DENOM_FLOOR:
        raise ResonantSingularityError("total-reflection denominator vanished")
    gamma = p / q
    if not cmath.isfinite(gamma):
        raise DomainError("the total reflection overflows at this point")
    return gamma


def chain_reflection(stack: Stack, wave: PlaneWave) -> complex:
    """Total reflection Gamma of the stack at z = 0."""
    return fold_reflection(*chain_segments(stack, wave))
