"""Illusion synthesis: the sheet state that disguises one stack as another.

Given an actual environment and a target environment, find the metasurface
state for which an observer measuring the actual environment's total
reflection sees exactly the target's. Two placements:

  * Reflective: the sheet replaces the actual stack's termination; the
    unknown is the terminating reflection coefficient rho_4m, described by
    its normalized sheet impedance eta/eta0.
  * Transmissive: the sheet sits at z = 0 ahead of the actual stack; the
    unknown is the front reflection coefficient rho_1m, described by the
    electric surface susceptibility chi_e that realizes it.

Each step of the reflection recursion in wavecore is a fractional-linear
(Moebius) map, so both syntheses are exact single-point inversions of it:
the reflective one runs Gamma_i backward through every layer of the actual
stack, the transmissive one takes a single inverse step at its front. Both
work for actual stacks of any depth. sheet_state is the one per-point step
(inversion, sheet description, passivity); a sweep feeds it the actual
stack's segments, its rho_T and Gamma_i, and synthesize feeds it an
IllusionProblem. The substitution checks evaluate the forward recursion
with the synthesized value in place.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import DegenerateSynthesisError, ValidationError
from .gstc import impedance_from_reflection, susceptibility_from_reflection
from .wavecore import (
    PlaneWave,
    Segments,
    Sheet,
    Stack,
    chain_reflection,
    chain_segments,
    fold_reflection,
)

_DEGENERACY_RTOL = 1e-12


class Mode(Enum):
    REFLECTIVE = "reflective"
    TRANSMISSIVE = "transmissive"


@dataclass(frozen=True)
class IllusionProblem:
    """An actual stack to disguise, a target stack to imitate, one wave.

    The one-point front end of the inversions: both stacks may have any
    number of layers and any termination; in reflective mode the actual
    termination is what the sheet replaces. Each stack is walked at most
    once: actual_walk and gamma_i are computed on first use and kept, so the
    synthesis and the substitution checks share them. A walk that raises
    keeps nothing and raises again on the next use.
    """

    actual: Stack
    target: Stack
    wave: PlaneWave
    mode: Mode

    def __post_init__(self) -> None:
        if not isinstance(self.mode, Mode):
            raise ValidationError(f"mode must be a Mode, got {self.mode!r}")

    @cached_property
    def actual_walk(self) -> tuple[Segments, complex]:
        """chain_segments of the actual stack: its (rho_n, Z_n^2) and rho_T."""
        return chain_segments(self.actual, self.wave)

    @cached_property
    def gamma_i(self) -> complex:
        """Gamma_i, the total reflection of the target stack."""
        return chain_reflection(self.target, self.wave)


def _solve(p: complex, q: complex, q_scale: float, det: complex, sheet: str) -> complex:
    """The sheet reflection p/q that an inverse map sends Gamma_i to.

    The map is degenerate at this point, and DegenerateSynthesisError is
    raised, in three cases, each judged with the relative tolerance:
      * q cancels against q_scale, the sum of the magnitudes it was built
        from: Gamma_i is the image of an infinite sheet reflection;
      * the map's determinant det is negligible against |p*q|: the forward
        map is so steep at p/q that rounding it moves Gamma by more than
        |p*q/det| ulps. A layer whose Z^2 underflows gives det = 0;
      * p/q overflows.
    """
    if abs(q) <= _DEGENERACY_RTOL * q_scale:
        raise DegenerateSynthesisError(f"no {sheet} produces the target reflection at this point")
    if abs(det) <= _DEGENERACY_RTOL * abs(p) * abs(q):
        raise DegenerateSynthesisError(f"the actual stack hides the {sheet} at this point")
    rho = p / q
    if not (math.isfinite(rho.real) and math.isfinite(rho.imag)):
        raise DegenerateSynthesisError(f"the required {sheet} reflection overflows at this point")
    return rho


def reflective_inversion(segments: Segments, rho_t: complex, gamma_i: complex) -> complex:
    """rho_4m, the terminating sheet reflection that makes the actual stack,
    given by its (rho_n, Z_n^2) segments, reflect Gamma_i. The sheet takes
    the place of the termination rho_t, which is therefore not read.

    Runs Gamma_i backward through the inverse steps of the actual stack,

        Gamma_{n+1} = (Gamma_n - rho_n) / (Z_n^2 (1 - rho_n Gamma_n)),

    on a pair Gamma = p/q, so the only division is the last one and an
    infinite intermediate Gamma passes through. Degeneracy is judged once,
    on the composed map (see _solve), never step by step: its determinant
    is the product of the steps' Z_n^2 (1 - rho_n^2), and q_scale bounds
    the magnitudes that q is summed from.
    """
    p, q, det = gamma_i, 1.0 + 0.0j, 1.0 + 0.0j
    p_scale, q_scale = abs(gamma_i), 1.0
    for rho, z2 in segments:
        r, z = abs(rho), abs(z2)
        p, q = p - rho * q, z2 * (q - rho * p)
        p_scale, q_scale = p_scale + r * q_scale, z * (q_scale + r * p_scale)
        det *= z2 * (1.0 - rho * rho)
    return _solve(p, q, q_scale, det, "terminating sheet")


def transmissive_inversion(segments: Segments, rho_t: complex, gamma_i: complex) -> complex:
    """rho_1m, the front-sheet reflection that makes the actual stack, given
    by its (rho_n, Z_n^2) segments and termination rho_t, reflect Gamma_i.

    rho_1m replaces the actual first interface's reflection coefficient.
    With X = Z_1^2 Gamma_2, the forward recursion over layers 2..N brought
    to the front of layer 1, the total reflection is (r + X)/(1 + r X) for a
    first interface reflecting r; one inverse step at the front gives
    rho_1m = (Gamma_i - X)/(1 - Gamma_i X). rho_1m = 1 admits no finite
    front sheet and raises.
    """
    x = segments[0][1] * fold_reflection(segments[1:], rho_t)
    rho_1m = _solve(gamma_i - x, 1.0 - gamma_i * x, 1.0 + abs(gamma_i * x), 1.0 - x * x, "front sheet")
    if abs(1.0 - rho_1m) <= _DEGENERACY_RTOL * max(1.0, abs(rho_1m)):
        raise DegenerateSynthesisError(
            "required front reflection is 1: no finite susceptibility realizes it"
        )
    return rho_1m


def sheet_terminated_reflection(problem: IllusionProblem, rho: complex) -> complex:
    """Total reflection of the actual stack with its termination replaced by Sheet(rho)."""
    segments, _ = problem.actual_walk
    return fold_reflection(segments, Sheet(rho).rho)


def front_sheet_reflection(problem: IllusionProblem, rho_1: complex) -> complex:
    """Total reflection of the actual stack with its first interface's
    reflection replaced by rho_1."""
    segments, rho_t = problem.actual_walk
    return fold_reflection(((complex(rho_1), segments[0][1]),) + segments[1:], rho_t)


def sheet_state(
    mode: Mode, segments: Segments, rho_t: complex, gamma_i: complex, k0: float, cos_theta: complex
) -> tuple[complex, complex, bool]:
    """(rho, sheet, passive): the sheet reflection that makes the actual
    stack, given by its (rho_n, Z_n^2) segments and termination rho_t,
    reflect Gamma_i at vacuum wavenumber k0 and incidence cosine cos_theta.

    The mode picks the inversion and the sheet description: the normalized
    impedance eta/eta0 of rho_4m (reflective) or the susceptibility chi_e of
    rho_1m (transmissive). passive is |rho| <= 1 and Re(eta) >= 0. The two
    conditions agree analytically (the unit disk maps onto the right
    impedance half-plane); checking both keeps the verdict conservative
    under rounding. The |rho| = 1 boundary is passive.
    """
    if mode is Mode.REFLECTIVE:
        rho = reflective_inversion(segments, rho_t, gamma_i)
        sheet = eta_n = impedance_from_reflection(rho)
    else:
        rho = transmissive_inversion(segments, rho_t, gamma_i)
        sheet = susceptibility_from_reflection(rho, k0, cos_theta)
        eta_n = impedance_from_reflection(rho)
    return rho, sheet, abs(rho) <= 1.0 and eta_n.real >= 0.0


def synthesize(problem: IllusionProblem) -> tuple[complex, complex, bool]:
    """sheet_state of one illusion problem, in the problem's mode."""
    wave = problem.wave
    return sheet_state(
        problem.mode, *problem.actual_walk, problem.gamma_i, wave.k0, cmath.cos(wave.theta1)
    )
