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
work for actual stacks of any depth. They read the actual stack's angle
walk and form each round trip Z_n^2 = e^{-j k0 a_n} as they reach it, the
same factor wavecore.walk_reflection forms. Each is split by loop level:
sheet_plan takes what depends on the angle only from the walk, and the
per-point step _sheet_step gives the inversion, its sheet description from
the gstc kernels and the passivity verdict. A sweep plans once per angle
and steps at every point; the inversions, sheet_state and synthesize are
plan then step. At an error-free point a transmissive sweep takes the
step _front_step instead, which gives the actual stack's own Gamma and the
front sheet from one fold of the plan's layers 2..N, made by the sweep in
its batch of the frequency. The substitution checks fold the same walk with
walk_reflection, the synthesized value in place.
"""

from __future__ import annotations

import cmath
from functools import cached_property

from ._value import Value, _require_finite
from .errors import DegenerateSynthesisError, DomainError, ValidationError
from .gstc import _impedance, _incidence, _susceptibility
from .wavecore import Mode, PlaneWave, Sheet, Stack, Walk, _close, angle_walk, chain_reflection, walk_reflection

_DEGENERACY_RTOL = 1e-12
# abs() of a finite complex past the float range raises OverflowError, and so
# does a round trip e^{-j k0 a} that leaves it; one whose phase k0 Re(a)
# overflows raises ValueError
_NOT_FINITE = "the {} inversion is not finite at this point"


class IllusionProblem(Value):
    """An actual stack to disguise, a target stack to imitate, one wave.

    The one-point front end of the inversions: both stacks may have any
    number of layers and any termination; in reflective mode the actual
    termination is what the sheet replaces. Each stack is walked at most
    once: actual_walk and gamma_i are computed on first use and kept, so the
    synthesis and the substitution checks share them. A walk that raises
    keeps nothing and raises again on the next use.
    """

    __slots__ = ("actual", "target", "wave", "mode", "__dict__")  # __dict__ keeps the cached walks

    def __init__(self, actual: Stack, target: Stack, wave: PlaneWave, mode: Mode) -> None:
        if not isinstance(mode, Mode):
            raise ValidationError(f"mode must be a Mode, got {mode!r}")
        super().__init__(actual, target, wave, mode)

    @cached_property
    def actual_walk(self) -> Walk:
        """The actual stack's angle walk: its (rho_n, a_n) and rho_T."""
        return angle_walk(self.actual, self.wave.theta1)

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
    abs_q = abs(q)
    if abs_q <= _DEGENERACY_RTOL * q_scale:
        raise DegenerateSynthesisError(f"no {sheet} produces the target reflection at this point")
    if abs(det) <= _DEGENERACY_RTOL * abs(p) * abs_q:
        raise DegenerateSynthesisError(f"the actual stack hides the {sheet} at this point")
    rho = p / q
    if not cmath.isfinite(rho):
        raise DegenerateSynthesisError(f"the required {sheet} reflection overflows at this point")
    return rho


def sheet_plan(mode: Mode, walk: Walk) -> tuple:
    """(invert, inverse): what a synthesis in this mode reads of the actual
    stack's angle walk at every frequency, formed once per walk.
    invert(inverse, k0, gamma_i) is the mode's inversion at one point.

    Reflective: per layer (rho_n, a_n, |rho_n|, 1 - rho_n^2), which depend on
    the angle only. Transmissive: rho_1, a_1 and the walk of layers 2..N,
    (steps[1:], rho_T). Building a plan never raises: where |rho_n|
    overflows, or the walk has no layer to put a front sheet on, inverse is
    None and invert raises what the inversion would.
    """
    steps, rho_t = walk
    if mode is Mode.REFLECTIVE:
        try:
            return _terminating_sheet, tuple((rho, a, abs(rho), 1.0 - rho * rho) for rho, a in steps)
        except OverflowError:
            return _terminating_sheet, None
    return _front_sheet, ((*steps[0], (steps[1:], rho_t)) if steps else None)


def _terminating_sheet(layers: tuple | None, k0: float, gamma_i: complex) -> complex:
    """rho_4m from a reflective plan's layers; see reflective_inversion."""
    if layers is None:  # an |rho_n| of the walk overflowed
        raise DomainError(_NOT_FINITE.format("terminating sheet"))
    jk0 = -1j * k0
    try:
        p, q, det = gamma_i, 1.0 + 0.0j, 1.0 + 0.0j
        p_scale, q_scale = abs(gamma_i), 1.0
        for rho, a, r, d in layers:
            z2 = cmath.exp(jk0 * a)
            z = abs(z2)
            p, q = p - rho * q, z2 * (q - rho * p)
            p_scale, q_scale = p_scale + r * q_scale, z * (q_scale + r * p_scale)
            det *= z2 * d
        return _solve(p, q, q_scale, det, "terminating sheet")
    except (OverflowError, ValueError):
        raise DomainError(_NOT_FINITE.format("terminating sheet")) from None


def _front_sheet(front: tuple | None, k0: float, gamma_i: complex) -> complex:
    """rho_1m from a transmissive plan's (rho_1, a_1, rest walk); see
    transmissive_inversion. The sheet takes rho_1's place, so rho_1 is not read."""
    if front is None:
        raise ValidationError("the front-sheet inversion needs at least one layer")
    _, a_1, rest = front
    try:
        return _front_rho(gamma_i, cmath.exp(-1j * k0 * a_1) * walk_reflection(rest, k0))
    except (OverflowError, ValueError):
        raise DomainError(_NOT_FINITE.format("front sheet")) from None


def _front_rho(gamma_i: complex, x: complex) -> complex:
    """rho_1m = (Gamma_i - X)/(1 - Gamma_i X) from X = Z_1^2 Gamma_2; the
    caller turns an OverflowError or ValueError into DomainError."""
    gx = gamma_i * x
    rho_1m = _solve(gamma_i - x, 1.0 - gx, 1.0 + abs(gx), 1.0 - x * x, "front sheet")
    if abs(1.0 - rho_1m) <= _DEGENERACY_RTOL * max(1.0, abs(rho_1m)):
        raise DegenerateSynthesisError(
            "required front reflection is 1: no finite susceptibility realizes it"
        )
    return rho_1m


def reflective_inversion(walk: Walk, k0: float, gamma_i: complex) -> complex:
    """rho_4m, the terminating sheet reflection that makes the actual stack,
    given by its angle walk, reflect Gamma_i at vacuum wavenumber k0. The
    sheet takes the place of the walk's termination rho_T, which is
    therefore not read.

    Runs Gamma_i backward through the inverse steps of the actual stack,

        Gamma_{n+1} = (Gamma_n - rho_n) / (Z_n^2 (1 - rho_n Gamma_n)),

    on a pair Gamma = p/q, so the only division is the last one and an
    infinite intermediate Gamma passes through. Degeneracy is judged once,
    on the composed map (see _solve), never step by step: its determinant
    is the product of the steps' Z_n^2 (1 - rho_n^2), and q_scale bounds
    the magnitudes that q is summed from. |rho_n| and 1 - rho_n^2 come from
    the walk's sheet_plan.
    """
    invert, inverse = sheet_plan(Mode.REFLECTIVE, walk)
    return invert(inverse, k0, gamma_i)


def transmissive_inversion(walk: Walk, k0: float, gamma_i: complex) -> complex:
    """rho_1m, the front-sheet reflection that makes the actual stack, given
    by its angle walk, reflect Gamma_i at vacuum wavenumber k0.

    rho_1m replaces the actual first interface's reflection coefficient.
    With X = Z_1^2 Gamma_2, the forward recursion over layers 2..N brought
    to the front of layer 1, the total reflection is (r + X)/(1 + r X) for a
    first interface reflecting r; one inverse step at the front gives
    rho_1m = (Gamma_i - X)/(1 - Gamma_i X). rho_1m = 1 admits no finite
    front sheet and raises, and so does a walk with no layer. The walk of
    layers 2..N comes from the walk's sheet_plan.
    """
    invert, inverse = sheet_plan(Mode.TRANSMISSIVE, walk)
    return invert(inverse, k0, gamma_i)


def sheet_terminated_reflection(problem: IllusionProblem, rho: complex) -> complex:
    """Total reflection of the actual stack with its termination replaced by Sheet(rho)."""
    steps, _ = problem.actual_walk
    return walk_reflection((steps, Sheet(rho).rho), problem.wave.k0)


def front_sheet_reflection(problem: IllusionProblem, rho_1: complex) -> complex:
    """Total reflection of the actual stack with its first interface's
    reflection replaced by rho_1."""
    rho_1 = _require_finite("sheet reflection", complex(rho_1))
    steps, rho_t = problem.actual_walk
    return walk_reflection((((rho_1, steps[0][1]),) + steps[1:], rho_t), problem.wave.k0)


def _sheet_step(
    plan: tuple, k0: float, gamma_i: complex, cos_theta: complex
) -> tuple[complex, complex, bool]:
    """sheet_state from the walk's sheet_plan; k0 > 0 and a cos_theta that
    describes an incident wave are the caller's to ensure."""
    invert, inverse = plan
    rho = invert(inverse, k0, gamma_i)
    if invert is _terminating_sheet:
        sheet = eta_n = _impedance(rho)
    else:
        sheet = _susceptibility(rho, k0, cos_theta)
        eta_n = _impedance(rho)
    return rho, sheet, abs(rho) <= 1.0 and eta_n.real >= 0.0


def _front_step(
    plan: tuple, k0: float, gamma_i: complex, cos_theta: complex, pair: tuple[complex, complex]
) -> tuple[complex, complex, complex, bool]:
    """(g_act, rho_1m, chi_e, passive) at a transmissive sweep point, from
    the walk's transmissive sheet_plan and pair, the unclosed fold p/q of
    the plan's walk of layers N..2 at k0 (walk_reflections in pairs mode).

    The pair and Z_1^2 give both the actual Gamma, one more forward step,
    and X = Z_1^2 Gamma_2. The same bits as walk_reflection of the actual
    walk and _sheet_step, and a PlanemirageError wherever either would
    raise, which the sweep then tags by its own rules.
    """
    _, (rho_1, a_1, _) = plan
    p, q = pair
    try:
        z2 = cmath.exp(-1j * k0 * a_1)
        w = z2 * p
        g_act = _close(rho_1 * q + w, q + rho_1 * w)
        rho = _front_rho(gamma_i, z2 * _close(p, q))
        chi_e = _susceptibility(rho, k0, cos_theta)
        eta_n = _impedance(rho)
        return g_act, rho, chi_e, abs(rho) <= 1.0 and eta_n.real >= 0.0
    except (OverflowError, ValueError):
        raise DomainError(_NOT_FINITE.format("front sheet")) from None


def sheet_state(
    mode: Mode, walk: Walk, k0: float, gamma_i: complex, cos_theta: complex
) -> tuple[complex, complex, bool]:
    """(rho, sheet, passive): the sheet reflection that makes the actual
    stack, given by its angle walk, reflect Gamma_i at vacuum wavenumber k0
    and incidence cosine cos_theta.

    The mode picks the inversion and the sheet description: the normalized
    impedance eta/eta0 of rho_4m (reflective) or the susceptibility chi_e of
    rho_1m (transmissive). passive is |rho| <= 1 and Re(eta) >= 0. The two
    conditions agree analytically (the unit disk maps onto the right
    impedance half-plane); checking both keeps the verdict conservative
    under rounding. The |rho| = 1 boundary is passive.

    It is sheet_plan followed by the per-point step; a sweep builds the
    plan once per angle and takes the step at every frequency. In
    transmissive mode k0 and cos_theta are checked first, as
    susceptibility_from_reflection checks them.
    """
    if not isinstance(mode, Mode):
        raise ValidationError(f"mode must be a Mode, got {mode!r}")
    if mode is Mode.TRANSMISSIVE:
        cos_theta = _incidence(k0, cos_theta)
    return _sheet_step(sheet_plan(mode, walk), k0, gamma_i, cos_theta)


def synthesize(problem: IllusionProblem) -> tuple[complex, complex, bool]:
    """sheet_state of one illusion problem, in the problem's mode."""
    wave = problem.wave
    return sheet_state(problem.mode, problem.actual_walk, wave.k0, problem.gamma_i, cmath.cos(wave.theta1))
