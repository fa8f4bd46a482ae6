"""Independent verification paths and randomized-case generators.

The linear-system oracle rebuilds the boundary-value problem from scratch:
one forward and one backward amplitude per region, matched interface by
interface through field continuity, solved as a dense complex system with
numpy. It shares no propagation, branch, or matrix code with the package;
agreement is therefore meaningful evidence.

The one-step chain is the object-valued walk the package once exported:
a wave state per region (incident, each layer, an Open half-space) and the
interface reflection between two states, in its own arithmetic, imported
from none of wavecore's steps. Recomposed into one_step_walk, it must give
angle_walk's output bit for bit, or the same error.

The transfer-matrix section keeps the references the package's reflection
recursion replaced: the 2x2 segment-matrix chain with its own interface
transmission and one-way phase, the synthesis oracles that invert its
fractional-linear map, and the paper's expanded four-product closed forms
for three-layer actual stacks. They run on the one-step chain's states but
share none of the package's recursion.

The sheet-model section keeps what only verifies the package's sheet
descriptions: the forward susceptibility map whose electric-only inverse
the package uses, the inverse of its impedance map, and the tangential
field jumps a sheet supports with their impedance-boundary residuals.

Conventions mirror the library's: e^{+j omega t} time dependence, fields
written as F e^{-j kz z} + B e^{+j kz z}, reflection referenced at the
first interface z = 0.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from planemirage._value import _require_finite
from planemirage.errors import (
    DegenerateInterfaceError,
    DegenerateSynthesisError,
    DomainError,
    PlanemirageError,
    SheetResonanceError,
    ValidationError,
)
from planemirage.synthesis import IllusionProblem
from planemirage.wavecore import (
    AIR,
    ETA0,
    Layer,
    Medium,
    Open,
    Pec,
    PlaneWave,
    Sheet,
    Stack,
    _DENOM_FLOOR,
    angle_walk,
)

C0 = 299792458.0


def _kz(k0: float, eps: complex, mu: complex, s2: complex) -> complex:
    """Longitudinal wavenumber with the decaying branch: Im(kz) <= 0."""
    v = np.sqrt(eps * mu - s2 + 0j)
    if v.imag > 0:
        v = -v
    return k0 * complex(v)


def linear_system_reflection(stack: Stack, wave: PlaneWave) -> complex:
    """Total reflection by direct field matching, solved with numpy.

    Unknowns: B0 in the incident region (F0 = 1), (Fn, Bn) per layer, and
    the transmitted amplitude for an open termination. Tangential-E
    continuity pairs with weighted (Fn - Bn) continuity, weight eps/kz,
    which is the TM magnetic-field continuity up to a factor common to all
    regions.
    """
    k0 = 2.0 * math.pi * wave.frequency / C0
    inc = stack.incident_medium
    s = np.sqrt(complex(inc.eps_r * inc.mu_r)) * math.sin(wave.theta1)
    s2 = complex(s * s)

    regions = [(inc.eps_r, inc.mu_r, 0.0)]
    for layer in stack.layers:
        regions.append((layer.medium.eps_r, layer.medium.mu_r, layer.thickness))
    is_open = isinstance(stack.termination, Open)
    if is_open:
        half = stack.termination.half_space
        regions.append((half.eps_r, half.mu_r, 0.0))

    kz = [_kz(k0, eps, mu, s2) for eps, mu, _ in regions]
    w = [regions[i][0] / kz[i] for i in range(len(regions))]

    n_layers = len(stack.layers)
    size = 1 + 2 * n_layers + (1 if is_open else 0)
    a = np.zeros((size, size), dtype=complex)
    b = np.zeros(size, dtype=complex)

    def col_f(n: int) -> int:  # region n >= 1
        return 1 + 2 * (n - 1)

    def col_b(n: int) -> int:
        return 2 + 2 * (n - 1)

    # incident interface at z = 0: 1 + B0 matches F1 + B1, weighted difference too
    a[0, 0] = 1.0
    a[0, col_f(1)] = -1.0
    a[0, col_b(1)] = -1.0
    b[0] = -1.0
    a[1, 0] = -w[0]
    a[1, col_f(1)] = -w[1]
    a[1, col_b(1)] = w[1]
    b[1] = -w[0]

    row = 2
    for n in range(1, n_layers):
        pm = np.exp(-1j * kz[n] * regions[n][2])
        pp = np.exp(1j * kz[n] * regions[n][2])
        a[row, col_f(n)] = pm
        a[row, col_b(n)] = pp
        a[row, col_f(n + 1)] = -1.0
        a[row, col_b(n + 1)] = -1.0
        row += 1
        a[row, col_f(n)] = w[n] * pm
        a[row, col_b(n)] = -w[n] * pp
        a[row, col_f(n + 1)] = -w[n + 1]
        a[row, col_b(n + 1)] = w[n + 1]
        row += 1

    n = n_layers
    pm = np.exp(-1j * kz[n] * regions[n][2])
    pp = np.exp(1j * kz[n] * regions[n][2])
    term = stack.termination
    if isinstance(term, Pec):
        a[row, col_f(n)] = pm
        a[row, col_b(n)] = pp
    elif isinstance(term, Sheet):
        a[row, col_f(n)] = term.rho * pm
        a[row, col_b(n)] = -pp
    else:
        col_t = size - 1
        a[row, col_f(n)] = pm
        a[row, col_b(n)] = pp
        a[row, col_t] = -1.0
        row += 1
        a[row, col_f(n)] = w[n] * pm
        a[row, col_b(n)] = -w[n] * pp
        a[row, col_t] = -w[n + 1]

    x = np.linalg.solve(a, b)
    return complex(x[0])


# ------------------------------------------------------ one-step chain


class WaveState(NamedTuple):
    """Wave descriptors inside one region, with no frequency in them:
    s_n = sqrt(eps*mu), the wavenumber in units of k0; s_t = s_n*sin(angle),
    its transverse part, the same in every region of a stack; the impedance
    eta_n (ohms); and the cosine cos_n of the angle."""

    s_n: complex
    s_t: complex
    eta_n: complex
    cos_n: complex


def _wave_constants(medium: Medium) -> tuple[complex, complex]:
    return cmath.sqrt(medium.eps_r * medium.mu_r), ETA0 * cmath.sqrt(medium.mu_r / medium.eps_r)


def incident_state(medium: Medium, theta1: float) -> WaveState:
    """State of the wave incident at angle theta1 (radians) in medium."""
    s, eta = _wave_constants(medium)
    theta = complex(theta1)
    return WaveState(s, s * cmath.sin(theta), eta, cmath.cos(theta))


def refracted_state(medium: Medium, state: WaveState) -> WaveState:
    """Refract the wave from state's region into medium, keeping s_t:
    principal square root, flipped where Re(cos) < 0, and on the Re = 0
    branch the solution that decays toward the termination."""
    s, eta = _wave_constants(medium)
    sin_t = state.s_t / s
    cos_t = cmath.sqrt(1.0 - sin_t * sin_t)
    if cos_t.real < 0.0 or (cos_t.real == 0.0 and (s * cos_t).imag > 0.0):
        cos_t = -cos_t
    return WaveState(s, state.s_t, eta, cos_t)


def interface_reflection(state_n: WaveState, state_np1: WaveState) -> complex:
    """rho = (n2 - n1)/(n2 + n1) with n_i = eta_i*cos(theta_i), or
    DegenerateInterfaceError where the sum vanishes."""
    n1 = state_n.eta_n * state_n.cos_n
    n2 = state_np1.eta_n * state_np1.cos_n
    den = n2 + n1
    if math.hypot(den.real, den.imag) < _DENOM_FLOOR:
        raise DegenerateInterfaceError(f"interface denominator vanished: {den!r}")
    return (n2 - n1) / den


def one_step_walk(stack: Stack, theta1: float):
    """angle_walk's ((rho_n, a_n), ...), rho_T recomposed from the states
    above, with the same expressions and the same errors."""
    steps = []
    state = incident_state(stack.incident_medium, theta1)
    for layer in stack.layers:
        nxt = refracted_state(layer.medium, state)
        rho = interface_reflection(state, nxt)
        a = nxt.s_n * (2.0 * layer.thickness) * nxt.cos_n
        if not cmath.isfinite(a):
            decay = (nxt.s_n * nxt.cos_n).imag
            if not decay < 0.0:
                raise DomainError("the round trip across a layer leaves the float range")
            a = complex(0.0, 2.0 * (layer.thickness * decay))
        steps.append((rho, a))
        state = nxt
    term = stack.termination
    if isinstance(term, Pec):
        return tuple(steps), -1.0 + 0.0j
    if isinstance(term, Sheet):
        return tuple(steps), term.rho
    return tuple(steps), interface_reflection(state, refracted_state(term.half_space, state))


# ------------------------------------- transfer matrices and closed forms

# A 2x2 matrix is the tuple (m11, m12, m21, m22).
IDENTITY = (1.0 + 0j, 0j, 0j, 1.0 + 0j)

_DEGENERACY_RTOL = 1e-12


def matmul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def determinant(m) -> complex:
    return m[0] * m[3] - m[1] * m[2]


def interface_coefficients(state_n: WaveState, state_np1: WaveState) -> tuple[complex, complex]:
    """Local reflection and transmission coefficients at one interface.

    rho = (n2 - n1)/(n2 + n1) and tau = 2*n2/(n2 + n1) with n_i = eta_i*cos(theta_i),
    so 1 + rho = tau holds identically.
    """
    n1 = state_n.eta_n * state_n.cos_n
    n2 = state_np1.eta_n * state_np1.cos_n
    return interface_reflection(state_n, state_np1), 2.0 * n2 / (n2 + n1)


def propagation_phase(state_n: WaveState, thickness: float, k0: float) -> complex:
    """One-way phase/decay factor Z = e^{-j k0 s l cos(theta)} across a layer
    at vacuum wavenumber k0; DomainError where it overflows, as across a
    thick gain layer."""
    try:
        return cmath.exp(-1j * k0 * (state_n.s_n * thickness * state_n.cos_n))
    except OverflowError:
        raise DomainError("the propagation factor across a gain layer overflows") from None


def round_trips(walk, k0: float) -> list[complex]:
    """Each layer's round trip Z_n^2 = e^{-j k0 a_n} of an angle walk, formed
    with the runtime's expression; OverflowError where one leaves the float
    range."""
    return [cmath.exp(-1j * k0 * a) for _, a in walk[0]]


def termination_reflection(stack: Stack, wave: PlaneWave) -> complex:
    """Reflection of the termination as seen from inside the last layer."""
    return angle_walk(stack, wave.theta1)[1]


def segment_triples(stack: Stack, wave: PlaneWave) -> list[tuple[complex, complex, complex]]:
    """Per-layer (rho_n, tau_n, Z_n) with Z_n the one-way phase factor."""
    out = []
    state = incident_state(stack.incident_medium, wave.theta1)
    for layer in stack.layers:
        nxt = refracted_state(layer.medium, state)
        rho, tau = interface_coefficients(state, nxt)
        out.append((rho, tau, propagation_phase(nxt, layer.thickness, wave.k0)))
        state = nxt
    return out


def segment_matrix(rho: complex, tau: complex, z: complex):
    """M = (1/tau) [[1/Z, rho*Z], [rho/Z, Z]]; det(M) = (1 - rho^2)/tau^2."""
    zi = 1.0 / z
    return (zi / tau, rho * z / tau, rho * zi / tau, z / tau)


def chain_matrix(triples):
    m = IDENTITY
    for rho, tau, z in triples:
        m = matmul(m, segment_matrix(rho, tau, z))
    return m


def matrix_reflection(stack: Stack, wave: PlaneWave) -> complex:
    """Gamma = (m21 + m22*rho_T)/(m11 + m12*rho_T) with M = M_1 ... M_N."""
    m = chain_matrix(segment_triples(stack, wave))
    rho_t = termination_reflection(stack, wave)
    return (m[2] + m[3] * rho_t) / (m[0] + m[1] * rho_t)


def _degenerate_if(den: complex, *terms: complex) -> None:
    if abs(den) <= _DEGENERACY_RTOL * max(abs(t) for t in terms):
        raise DegenerateSynthesisError("no sheet produces the target reflection at this point")


def _target(problem: IllusionProblem) -> complex:
    return matrix_reflection(problem.target, problem.wave)


def reflective_matrix_oracle(problem: IllusionProblem) -> complex:
    """rho_4m by inverting Gamma(rho) = (m21 + m22*rho)/(m11 + m12*rho):
    rho_4m = (Gamma_i*m11 - m21)/(m22 - Gamma_i*m12)."""
    m = chain_matrix(segment_triples(problem.actual, problem.wave))
    g_i = _target(problem)
    den = m[3] - g_i * m[1]
    _degenerate_if(den, m[3], g_i * m[1])
    return (g_i * m[0] - m[2]) / den


def transmissive_matrix_oracle(problem: IllusionProblem) -> complex:
    """rho_1m by inverting the front-interface map. With (w1, w2) the
    closure of segments 2..N against the actual termination and Z1 the
    first-layer phase, Gamma(r) = (r*w1/Z1 + Z1*w2)/(w1/Z1 + r*Z1*w2)."""
    triples = segment_triples(problem.actual, problem.wave)
    z1 = triples[0][2]
    m = chain_matrix(triples[1:])
    rho_t = termination_reflection(problem.actual, problem.wave)
    w1 = m[0] + m[1] * rho_t
    w2 = m[2] + m[3] * rho_t
    g_i = _target(problem)
    den = w1 / z1 - g_i * z1 * w2
    _degenerate_if(den, w1 / z1, g_i * z1 * w2)
    return (g_i * w1 / z1 - z1 * w2) / den


def closure_pair(stack: Stack, wave: PlaneWave) -> tuple[complex, complex]:
    """(u1, u2) with Gamma = u2/u1, from prefactor-free segment matrices."""
    m = IDENTITY
    for rho, _tau, z in segment_triples(stack, wave):
        m = matmul(m, (1.0 / z, rho * z, rho / z, z))
    rho_t = termination_reflection(stack, wave)
    return m[0] + m[1] * rho_t, m[2] + m[3] * rho_t


def _expanded_entries(r1, z1, r2, z2, r3, z3):
    """Entries of M1*M2*M3 (prefactor-free) written out as polynomials."""
    z1i, z2i, z3i = 1.0 / z1, 1.0 / z2, 1.0 / z3
    p11 = z1i * z2i + r1 * z1 * r2 * z2i
    p12 = z1i * r2 * z2 + r1 * z1 * z2
    p21 = r1 * z1i * z2i + z1 * r2 * z2i
    p22 = r1 * z1i * r2 * z2 + z1 * z2
    e11 = p11 * z3i + p12 * r3 * z3i
    e12 = p11 * r3 * z3 + p12 * z3
    e21 = p21 * z3i + p22 * r3 * z3i
    e22 = p21 * r3 * z3 + p22 * z3
    return e11, e12, e21, e22


class ReflectiveProducts(NamedTuple):
    """The paper's reflective closed form for a three-layer actual stack.

    With e_ij the expanded entries of the actual chain and (u1, u2) the
    target's closure pair: A0 = e22*u1, B0 = e12*u2, C = e11*u2, D = e21*u1,
    and rho_4m = (C - D)/(A0 - B0). The grouping rho_t*(A0 - B0)/(C - D),
    with rho_t the actual termination, looks symmetric but evaluates to
    rho_t/rho_4m.
    """

    a0: complex
    b0: complex
    c: complex
    d: complex
    rho_t: complex


class TransmissiveProducts(NamedTuple):
    """The paper's transmissive closed form for a three-layer actual stack.

    With Z1 the first-layer phase, (w1, w2) the closure of the last two
    segments against the actual termination and (u1, u2) the target's:
    a = Z1*w2*u2, b = w1*u1/Z1, c = Z1*w2*u1, d = w1*u2/Z1, and
    rho_1m = (c - d)/(a - b); (a - b)/(c - d) is its reciprocal.
    """

    a: complex
    b: complex
    c: complex
    d: complex


def reflective_products(problem: IllusionProblem) -> ReflectiveProducts:
    (r1, _, z1), (r2, _, z2), (r3, _, z3) = segment_triples(problem.actual, problem.wave)
    e11, e12, e21, e22 = _expanded_entries(r1, z1, r2, z2, r3, z3)
    u1, u2 = closure_pair(problem.target, problem.wave)
    rho_t = termination_reflection(problem.actual, problem.wave)
    return ReflectiveProducts(e22 * u1, e12 * u2, e11 * u2, e21 * u1, rho_t)


def reflective_closed_form(problem: IllusionProblem) -> complex:
    p = reflective_products(problem)
    _degenerate_if(p.a0 - p.b0, p.a0, p.b0)
    return (p.c - p.d) / (p.a0 - p.b0)


def transmissive_products(problem: IllusionProblem) -> TransmissiveProducts:
    (_, _, z1), (r2, _, z2), (r3, _, z3) = segment_triples(problem.actual, problem.wave)
    z2i, z3i = 1.0 / z2, 1.0 / z3
    q11 = z2i * z3i + r2 * z2 * r3 * z3i
    q12 = z2i * r3 * z3 + r2 * z2 * z3
    q21 = r2 * z2i * z3i + z2 * r3 * z3i
    q22 = r2 * z2i * r3 * z3 + z2 * z3
    rho_t = termination_reflection(problem.actual, problem.wave)
    w1 = q11 + q12 * rho_t
    w2 = q21 + q22 * rho_t
    u1, u2 = closure_pair(problem.target, problem.wave)
    z1i = 1.0 / z1
    return TransmissiveProducts(z1 * w2 * u2, z1i * w1 * u1, z1 * w2 * u1, z1i * w1 * u2)


def transmissive_closed_form(problem: IllusionProblem) -> complex:
    p = transmissive_products(problem)
    _degenerate_if(p.a - p.b, p.a, p.b)
    return (p.c - p.d) / (p.a - p.b)


# ---------------------------------------------------------- sheet models


class DivisionDomainError(PlanemirageError):
    """A sheet map's denominator vanished (eta = -eta0, or Z_e = 0 with nonzero E_av)."""


@dataclass(frozen=True)
class Susceptibilities:
    """Surface electric and magnetic susceptibilities of a sheet, in meters."""

    chi_e: complex
    chi_m: complex = 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "chi_e", complex(self.chi_e))
        object.__setattr__(self, "chi_m", complex(self.chi_m))
        _require_finite("chi_e", self.chi_e)
        _require_finite("chi_m", self.chi_m)


@dataclass(frozen=True)
class FieldJump:
    """Tangential fields on the two sides of a sheet (1: front, 2: back)."""

    e1: complex
    e2: complex
    h1: complex
    h2: complex

    def __post_init__(self) -> None:
        for name in ("e1", "e2", "h1", "h2"):
            value = complex(getattr(self, name))
            object.__setattr__(self, name, value)
            _require_finite(name, value)

    @property
    def e_av(self) -> complex:
        return (self.e1 + self.e2) / 2.0

    @property
    def h_av(self) -> complex:
        return (self.h1 + self.h2) / 2.0


def sheet_coefficients(
    chi: Susceptibilities, k0: float, cos_theta: complex
) -> tuple[complex, complex]:
    """Transmission and reflection of a susceptibility sheet in free space.

    With kh = k0 / (2 cos(theta)):

        tau = (1 - kh^2 chi_e chi_m) / (1 + kh^2 chi_e chi_m - j kh (chi_m - chi_e))
        rho = (j kh (chi_m + chi_e))  / (same denominator)

    A transparent sheet (chi_e = chi_m = 0) gives (1, 0). A vanishing
    denominator is a sheet resonance and raises. With chi_m = 0 this is the
    forward map that gstc.susceptibility_from_reflection inverts.
    """
    if not k0 > 0.0:
        raise ValidationError(f"k0 must be positive, got {k0!r}")
    cos_theta = complex(cos_theta)
    _require_finite("cos_theta", cos_theta)
    if abs(cos_theta) < _DENOM_FLOOR:
        raise ValidationError("cos_theta = 0: grazing incidence has no sheet model")
    kh = (k0 / 2.0) / cos_theta
    cross = kh * kh * chi.chi_e * chi.chi_m
    den = 1.0 + cross - 1j * kh * (chi.chi_m - chi.chi_e)
    if abs(den) < _DENOM_FLOOR:
        raise SheetResonanceError(
            "sheet resonance: susceptibility denominator vanished"
        )
    tau = (1.0 - cross) / den
    rho = 1j * kh * (chi.chi_m + chi.chi_e) / den
    return tau, rho


def reflection_from_impedance(eta: complex) -> complex:
    """Reflection coefficient of a sheet impedance in ohms: (eta - eta0)/(eta + eta0)."""
    eta = complex(eta)
    _require_finite("eta", eta)
    den = eta + ETA0
    if abs(den) < _DENOM_FLOOR:
        raise DivisionDomainError("eta = -eta0: reflection coefficient unbounded")
    return (eta - ETA0) / den


def surface_currents(jump: FieldJump) -> tuple[complex, complex]:
    """Equivalent surface currents sustaining a field jump.

    Scalar reduction: J_e = H2 - H1 (electric), J_m = E2 - E1 (magnetic).
    Continuous fields carry no current.
    """
    return jump.h2 - jump.h1, jump.e2 - jump.e1


def ibc_residual(jump: FieldJump, z_e: complex, z_m: complex) -> tuple[complex, complex]:
    """Residuals of the impedance boundary conditions for a field jump.

        r_e = (H2 - H1) - E_av / Z_e
        r_m = (E2 - E1) - H_av * Z_m

    Both vanish exactly when the jump satisfies the IBC pair; this is a
    verification predicate, not a solver. Orientation fixes the PEC limit:
    Z_e -> 0 forces E_av -> 0. Z_e = 0 with E_av = 0 contributes no
    electric term; Z_e = 0 with E_av != 0 is outside the model.
    """
    z_e = complex(z_e)
    z_m = complex(z_m)
    _require_finite("z_e", z_e)
    _require_finite("z_m", z_m)
    j_e, j_m = surface_currents(jump)
    e_av = jump.e_av
    if abs(z_e) < _DENOM_FLOOR:
        if abs(e_av) != 0.0:
            raise DivisionDomainError("Z_e = 0 with nonzero E_av: PEC limit violated")
        r_e = j_e
    else:
        r_e = j_e - e_av / z_e
    r_m = j_m - jump.h_av * z_m
    return r_e, r_m


# ------------------------------------------------------- randomized cases


def random_lossless_medium(rng: random.Random) -> Medium:
    return Medium(complex(rng.uniform(1.0, 10.0), 0.0))


def random_lossy_medium(rng: random.Random) -> Medium:
    re = rng.uniform(1.0, 10.0)
    return Medium(complex(re, -re * rng.uniform(0.0, 0.1)))


def random_layers(rng: random.Random, make_medium, n: int) -> tuple[Layer, ...]:
    return tuple(
        Layer(make_medium(rng), rng.uniform(1e-3, 200e-3)) for _ in range(n)
    )


def random_termination(rng: random.Random):
    pick = rng.randrange(3)
    if pick == 0:
        return Pec()
    if pick == 1:
        return Open(AIR)
    phase = rng.uniform(-math.pi, math.pi)
    return Sheet(rng.uniform(0.0, 1.0) * complex(math.cos(phase), math.sin(phase)))


def random_wave(rng: random.Random) -> PlaneWave:
    return PlaneWave(
        frequency=rng.uniform(1e9, 20e9),
        theta1=math.radians(rng.uniform(0.0, 80.0)),
    )


def random_lossless_pec_stack(rng: random.Random) -> Stack:
    n = rng.randint(1, 5)
    return Stack(AIR, random_layers(rng, random_lossless_medium, n), Pec())


def random_lossy_stack(rng: random.Random) -> Stack:
    n = rng.randint(1, 5)
    return Stack(AIR, random_layers(rng, random_lossy_medium, n), random_termination(rng))


def random_three_layer_stack(rng: random.Random) -> Stack:
    return Stack(AIR, random_layers(rng, random_lossy_medium, 3), random_termination(rng))
