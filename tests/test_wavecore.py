"""Core propagation: interface coefficients, phases, chains, terminations."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planemirage.errors import DegenerateInterfaceError, DomainError, ResonantSingularityError
from planemirage.wavecore import (
    AIR,
    ETA0,
    InvalidMediumError,
    Layer,
    Medium,
    Open,
    Pec,
    PlaneWave,
    Sheet,
    Stack,
    ValidationError,
    _DENOM_FLOOR,
    _reflect,
    angle_walk,
    chain_reflection,
    walk_reflection,
    walk_reflections,
)

from oracles import (
    IDENTITY,
    determinant,
    incident_state,
    interface_coefficients,
    interface_reflection,
    linear_system_reflection,
    matmul,
    matrix_reflection,
    one_step_walk,
    propagation_phase,
    random_lossless_pec_stack,
    random_lossy_stack,
    random_wave,
    refracted_state,
    round_trips,
    segment_matrix,
    termination_reflection,
)

# frozen at 50 digits by tools/freeze_reference_values.py
RHO_AIR_TO_LOSSY_SLAB = complex(-0.32774996338663593, 0.0045767443223096661)
THETA_IN_EPS4_AT_60DEG = 0.44783239692893249
Z_LOSSY_SLAB_60MM_10GHZ = complex(0.74106773379763641, 0.22734168015885803)
ABS_Z_LOSSY_SLAB_60MM_10GHZ = 0.77515522678584643

FR4ISH = Medium(3.9 - 0.08j)


def _states(medium, wave):
    inc = incident_state(AIR, wave.theta1)
    return inc, refracted_state(medium, inc)


def test_normal_incidence_interface_matches_frozen_value():
    wave = PlaneWave(10e9, 0.0)
    inc, slab = _states(FR4ISH, wave)
    rho, tau = interface_coefficients(inc, slab)
    assert abs(rho - RHO_AIR_TO_LOSSY_SLAB) < 1e-15
    assert abs((1.0 + rho) - tau) < 1e-15


def test_refraction_angle_into_eps4_at_60deg():
    wave = PlaneWave(10e9, math.radians(60.0))
    _, slab = _states(Medium(4.0 + 0.0j), wave)
    theta_n = cmath.asin(slab.s_t / slab.s_n)
    assert abs(theta_n.real - THETA_IN_EPS4_AT_60DEG) < 1e-15
    assert abs(theta_n.imag) < 1e-15
    assert abs(slab.cos_n - math.cos(THETA_IN_EPS4_AT_60DEG)) < 1e-15


def test_propagation_phase_matches_frozen_value():
    wave = PlaneWave(10e9, 0.0)
    _, slab = _states(FR4ISH, wave)
    z = propagation_phase(slab, 0.060, wave.k0)
    assert abs(z - Z_LOSSY_SLAB_60MM_10GHZ) < 1e-14
    assert abs(abs(z) - ABS_Z_LOSSY_SLAB_60MM_10GHZ) < 1e-14


def test_double_thickness_squares_the_phase_factor():
    wave = PlaneWave(10e9, math.radians(30.0))
    _, slab = _states(FR4ISH, wave)
    for length in (0.001, 0.060, 0.137):
        z1 = propagation_phase(slab, length, wave.k0)
        z2 = propagation_phase(slab, 2.0 * length, wave.k0)
        assert abs(z2 - z1 * z1) <= 1e-15 * abs(z2)


@given(
    st.floats(1.0, 10.0),
    st.floats(0.0, 0.1),
    st.floats(1.0, 10.0),
    st.floats(0.0, 0.1),
    st.floats(0.0, 80.0),
)
def test_interface_identity_one_plus_rho_equals_tau(re1, tan1, re2, tan2, theta_deg):
    wave = PlaneWave(5e9, math.radians(theta_deg))
    inc = incident_state(Medium(complex(re1, -re1 * tan1)), wave.theta1)
    nxt = refracted_state(Medium(complex(re2, -re2 * tan2)), inc)
    rho, tau = interface_coefficients(inc, nxt)
    assert abs((1.0 + rho) - tau) < 1e-12 * max(1.0, abs(tau))


def test_matched_interface_is_transparent():
    wave = PlaneWave(8e9, math.radians(40.0))
    inc, same = _states(AIR, wave)
    rho, tau = interface_coefficients(inc, same)
    assert abs(rho) < 1e-15  # refraction recomputes the cosine, so not exactly 0
    assert abs(tau - 1.0) < 1e-15
    inc, same = _states(AIR, PlaneWave(8e9, 0.0))
    assert interface_coefficients(inc, same) == (0.0, 1.0)


def test_an_interface_whose_impedances_sum_below_the_floor_is_degenerate():
    # |n1 + n2| is 1e-301, then 0, both below the floor; at the floor it passes
    with pytest.raises(DegenerateInterfaceError, match="interface denominator vanished"):
        _reflect(1.0 + 0j, -1.0 + 1e-301j)
    with pytest.raises(DegenerateInterfaceError):
        _reflect(2.0 - 1j, -2.0 + 1j)
    assert _reflect(1.0 + 0j, -1.0 + _DENOM_FLOOR * 1j) == (-2.0 + _DENOM_FLOOR * 1j) / (_DENOM_FLOOR * 1j)


def test_passive_layer_decays_toward_termination():
    # lossy and evanescent regions must attenuate, never grow
    wave = PlaneWave(10e9, math.radians(70.0))
    _, lossy = _states(FR4ISH, wave)
    assert (lossy.s_n * lossy.cos_n).imag < 0.0
    assert abs(propagation_phase(lossy, 0.05, wave.k0)) < 1.0

    # total internal reflection: dense incident medium into air
    dense = Stack(Medium(4.0 + 0j), (Layer(AIR, 0.01),), Pec())
    state = refracted_state(AIR, incident_state(dense.incident_medium, wave.theta1))
    assert state.cos_n.real == 0.0
    assert (state.s_n * state.cos_n).imag < 0.0
    assert abs(propagation_phase(state, 0.01, wave.k0)) < 1.0


def test_segment_matrix_determinant():
    # the transfer-matrix reference in tests/oracles.py
    rho, tau, z = 0.3 + 0.1j, 1.3 + 0.1j, cmath.exp(-0.4j)
    m = segment_matrix(rho, tau, z)
    det = determinant(m)
    expected = (1.0 - rho * rho) / (tau * tau)
    assert abs(det - expected) < 1e-15
    ident = matmul(IDENTITY, m)
    assert ident == m


def test_recursion_agrees_with_transfer_matrix_chain():
    # the recursion's step is the segment matrix's fractional-linear map
    rng = random.Random(1003)
    worst = 0.0
    for _ in range(200):
        stack = random_lossy_stack(rng)
        wave = random_wave(rng)
        want = matrix_reflection(stack, wave)
        worst = max(worst, abs(chain_reflection(stack, wave) - want) / max(1.0, abs(want)))
    assert worst < 1e-12


def test_thick_lossy_layer_hides_what_is_behind_it():
    # Z^2 underflows to 0 across 3 m of eps = 4 - 4j at 20 GHz
    wave = PlaneWave(20e9)
    lossy = Medium(4.0 - 4.0j)
    walled = Stack(AIR, (Layer(AIR, 0.1), Layer(lossy, 3.0), Layer(AIR, 0.1)), Pec())
    assert round_trips(angle_walk(walled, wave.theta1), wave.k0)[1] == 0.0
    half_space = Stack(AIR, (Layer(AIR, 0.1),), Open(lossy))
    assert abs(chain_reflection(walled, wave) - chain_reflection(half_space, wave)) < 1e-12


def test_a_lossy_layer_past_the_float_range_hides_what_is_behind_it():
    # a = 2 s l cos overflows across 1e308 m; the layer's attenuation alone
    # underflows Z^2 to 0 there, as it does across 1e300 m
    wave = PlaneWave(10e9)

    def gamma(eps, thickness):
        g = chain_reflection(Stack(AIR, (Layer(Medium(eps), thickness),), Pec()), wave)
        return g.real.hex(), g.imag.hex()

    assert gamma(4 - 0.1j, 1e308) == gamma(4 - 0.1j, 1e300)
    assert complex(*map(float.fromhex, gamma(4 - 0.1j, 1e308))) == pytest.approx(-0.33341 + 0.00555j, abs=1e-5)
    stack = Stack(AIR, (Layer(AIR, 0.1), Layer(Medium(4 - 0.1j), 1e308)), Pec())
    steps, rho_t = walk = angle_walk(stack, wave.theta1)
    assert round_trips(walk, wave.k0)[1] == 0.0
    # so any other termination gives the same bits
    assert walk_reflection((steps, 0.5 - 0.5j), wave.k0) == chain_reflection(stack, wave)


@pytest.mark.parametrize("eps", [4.0, 4.0 + 0.1j], ids=["lossless", "gain"])
def test_a_layer_past_the_float_range_that_does_not_decay_is_a_domain_error(eps):
    stack = Stack(AIR, (Layer(Medium(eps), 1e308),), Pec())
    with pytest.raises(DomainError):
        angle_walk(stack, 0.0)
    with pytest.raises(DomainError):
        chain_reflection(stack, PlaneWave(10e9))


def test_evanescent_gap_behind_a_dense_medium():
    # total internal reflection: a 2 m air gap behind eps = 9 at 60 degrees
    stack = Stack(Medium(9.0), (Layer(AIR, 2.0),), Pec())
    wave = PlaneWave(10e9, math.radians(60.0))
    with np.errstate(over="ignore"):  # the oracle's growing exponential is inf
        want = linear_system_reflection(stack, wave)
    assert abs(chain_reflection(stack, wave) - want) < 1e-9
    assert abs(abs(want) - 1.0) < 1e-12


def test_fold_passes_an_infinite_intermediate_reflection():
    # the back layer alone is resonant (Gamma_2 = infinity); the front maps it to 1/rho_1
    rho_1, rho_2 = 0.4 + 0.1j, 0.5
    # a layer of zero thickness has a_n = 0, so Z_n^2 = 1 exactly
    zero = Stack(AIR, (Layer(FR4ISH, 0.0),), Pec())
    assert angle_walk(zero, 0.3)[0][0][1] == 0.0
    walk = (((rho_1, 0j), (rho_2, 0j)), -1.0 / rho_2)
    assert round_trips(walk, 200.0) == [1.0, 1.0]
    assert abs(walk_reflection(walk, 200.0) - 1.0 / rho_1) < 1e-15


def test_thick_gain_layer_overflow_is_a_domain_error():
    # Im eps > 0 grows toward the termination: e^{2 Im(k) l} passes 1e308 across 3 m at 20 GHz
    gain = Medium(4.0 + 4.0j)
    wave = PlaneWave(20e9)
    state = refracted_state(gain, incident_state(AIR, wave.theta1))
    with pytest.raises(DomainError):
        propagation_phase(state, 3.0, wave.k0)
    with pytest.raises(DomainError):
        chain_reflection(Stack(AIR, (Layer(gain, 3.0),), Pec()), wave)


def test_gain_layers_that_overflow_the_fold_are_a_domain_error():
    # each round trip is finite (about e^381), their product is not: the pair p/q is nan
    gain = Layer(Medium(4.0 + 4.0j), 0.5)
    stack = Stack(AIR, (gain, Layer(AIR, 0.01), gain), Pec())
    walk, k0 = angle_walk(stack, 0.0), PlaneWave(20e9).k0
    assert all(math.isfinite(abs(z2)) for z2 in round_trips(walk, k0))
    with pytest.raises(DomainError, match="total reflection overflows"):
        walk_reflection(walk, k0)
    # a round trip of about 1.5e308 (1 + j): both parts of the denominator
    # are finite, its magnitude is not, so the plain quotient is nan and
    # the rescaled pair gives Gamma = 1/0.99
    walk = (((0.99, complex(-math.pi / 4.0, 709.95)),), 0.99)
    (z2,) = round_trips(walk, 1.0)
    assert 1e308 < z2.real < math.inf and 1e308 < z2.imag < math.inf
    assert walk_reflection(walk, 1.0) == pytest.approx(1.0 / 0.99)


def test_termination_reflections():
    wave = PlaneWave(10e9, 0.0)
    layers = (Layer(AIR, 0.1),)
    assert termination_reflection(Stack(AIR, layers, Pec()), wave) == -1.0
    assert termination_reflection(Stack(AIR, layers, Open(AIR)), wave) == 0.0
    assert termination_reflection(Stack(AIR, layers, Sheet(0.3 - 0.2j)), wave) == 0.3 - 0.2j
    # open half-space that differs from the last layer reflects like the interface
    rho = termination_reflection(Stack(AIR, layers, Open(FR4ISH)), wave)
    assert abs(rho - RHO_AIR_TO_LOSSY_SLAB) < 1e-15


def test_air_slab_on_pec_reflects_minus_round_trip_phase():
    wave = PlaneWave(10e9, 0.0)
    length = 0.0173
    stack = Stack(AIR, (Layer(AIR, length),), Pec())
    expected = -cmath.exp(-2j * wave.k0 * length)
    assert abs(chain_reflection(stack, wave) - expected) < 1e-15


def test_chain_agrees_with_linear_system_oracle():
    rng = random.Random(1001)
    worst = 0.0
    for _ in range(100):
        stack = random_lossy_stack(rng)
        wave = random_wave(rng)
        got = chain_reflection(stack, wave)
        want = linear_system_reflection(stack, wave)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-9


def test_lossless_pec_stacks_conserve_energy():
    rng = random.Random(1002)
    for _ in range(50):
        stack = random_lossless_pec_stack(rng)
        wave = random_wave(rng)
        assert abs(abs(chain_reflection(stack, wave)) - 1.0) < 1e-12


def test_angle_walk_shape():
    wave = PlaneWave(10e9, math.radians(25.0))
    stack = Stack(AIR, (Layer(AIR, 0.12), Layer(FR4ISH, 0.06), Layer(AIR, 0.12)), Pec())
    steps, rho_t = walk = angle_walk(stack, wave.theta1)
    assert len(steps) == 3
    assert abs(steps[0][0]) < 1e-15  # air onto air
    assert abs(steps[1][0]) > 0.1
    assert rho_t == -1.0
    # (rho_n, a_n): a_n is the round trip across the layer, Z_n^2 = e^{-j k0 a_n}
    state = incident_state(AIR, wave.theta1)
    for layer, (rho, _), z2 in zip(stack.layers, steps, round_trips(walk, wave.k0)):
        nxt = refracted_state(layer.medium, state)
        assert rho == interface_reflection(state, nxt)
        assert abs(z2 - propagation_phase(nxt, layer.thickness, wave.k0) ** 2) <= 1e-15 * abs(z2)
        state = nxt


def _outcome(walk, stack, theta1):
    """repr of the walk, so that signed zeros count, or the error it raised."""
    try:
        return repr(walk(stack, theta1))
    except (DomainError, DegenerateInterfaceError) as exc:
        return type(exc), str(exc)


# Gain (Im > 0) and lossy parts, mu != 1, and incident media up to eps 9,
# behind which air and other thin media are evanescent at oblique incidence.
_parts = st.floats(-2.0, 0.5)
_media = st.builds(
    lambda eps, eps_im, mu, mu_im: Medium(complex(eps, eps_im), complex(mu, mu_im)),
    st.floats(0.05, 12.0), _parts, st.one_of(st.just(1.0), st.floats(0.3, 4.0)), _parts.map(lambda x: x / 4),
)
_incident = st.builds(Medium, st.floats(1.0, 9.0), st.sampled_from([1.0, 1.2 - 0.01j]))
# thicknesses past 1e300 m make a round trip leave the float range
_layers = st.lists(
    st.builds(Layer, _media, st.one_of(st.floats(0.0, 0.2), st.floats(1e300, 1.7e308))), min_size=1, max_size=6
)
_terminations = st.one_of(
    st.just(Pec()),
    st.builds(lambda re, im: Sheet(complex(re, im)), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.builds(Open, _media),
)


@settings(max_examples=400, deadline=None)
@given(_incident, _layers, _terminations, st.floats(0.0, math.radians(89.9)))
@example(Medium(4.0), [Layer(AIR, 0.01), Layer(Medium(4.0 + 0.1j), 1e308)], Open(Medium(2.0, 1.1)), 0.7)
@example(Medium(4.0), [Layer(AIR, 1e308)], Sheet(0.5j), math.radians(60.0))
def test_angle_walk_matches_the_oracle_one_step_chain(incident, layers, termination, theta1):
    # every (rho_n, a_n) and rho_T bit for bit, or the same error
    stack = Stack(incident, tuple(layers), termination)
    assert _outcome(angle_walk, stack, theta1) == _outcome(one_step_walk, stack, theta1)


def _one_fold(walk, k0, pair):
    """repr of walk_reflection's value for one walk, or None where it raises."""
    try:
        return repr(walk_reflection(walk, k0, _pair=pair))
    except (DomainError, ResonantSingularityError):
        return None


# Two walks that fail at every k0 >= 1: a gain round trip past the float
# range, and a pair whose total is singular (rho = -1 over rho_T = 1), which
# pairs mode still returns.
_OVERFLOWING = (((0.5 + 0j, 1000j),), -1.0 + 0j)
_SINGULAR = (((-1.0 + 0j, 0j),), 1.0 + 0j)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_incident, _layers, _terminations, st.floats(0.0, math.radians(89.9))), max_size=5),
    st.floats(1.0, 1e5),
)
@example([(AIR, [Layer(Medium(4.0 + 4.0j), 3.0)], Pec(), 0.0), (AIR, [Layer(AIR, 0.1)], Pec(), 0.0)], 2000.0)
def test_a_batch_folds_each_walk_as_walk_reflection_does(drawn, k0):
    # the batch gives walk_reflection's value for each walk, by repr, and
    # None exactly where walk_reflection raises, closed or in pairs mode;
    # a walk that fails between two others leaves their values as they are
    walks = []
    for incident, layers, termination, theta1 in drawn:
        try:
            walks.append(angle_walk(Stack(incident, tuple(layers), termination), theta1))
        except (DomainError, DegenerateInterfaceError):
            pass
    for pair in (False, True):
        alone = [_one_fold(walk, k0, pair) for walk in walks]
        batch = walk_reflections(walks, k0, pair)
        assert [None if g is None else repr(g) for g in batch] == alone
        mixed = [w for walk in walks for w in (_OVERFLOWING, walk, _SINGULAR)]
        folds = walk_reflections(mixed, k0, pair)
        assert [None if g is None else repr(g) for g in folds[1::3]] == alone
        assert folds[::3] == [None] * len(walks)
        assert folds[2::3] == [(0j, 0j) if pair else None] * len(walks)


def test_validation_rejects_bad_inputs():
    with pytest.raises(InvalidMediumError):
        Medium(0.0)
    with pytest.raises(InvalidMediumError):  # k = k0 sqrt(eps mu) = 0: refraction divides by it
        chain_reflection(Stack(AIR, (Layer(Medium(2.0, 0.0), 0.01),), Pec()), PlaneWave(10e9))
    with pytest.raises(InvalidMediumError):
        Medium(complex(float("nan"), 0.0))
    with pytest.raises(ValidationError):
        Layer(AIR, -0.001)
    with pytest.raises(ValidationError):
        Stack(AIR, (), Pec())
    with pytest.raises(ValidationError):
        PlaneWave(0.0)
    with pytest.raises(ValidationError):
        PlaneWave(1e9, math.pi / 2.0)
    with pytest.raises(ValidationError):
        PlaneWave(1e9, 0.0, polarization="TE")
    with pytest.raises(ValidationError):
        Sheet(complex(float("inf"), 0.0))


NON_FINITE = [
    complex(float("inf"), 0.5),
    complex(0.5, float("inf")),
    complex(float("nan"), 0.5),
    complex(0.5, float("nan")),
]
NON_FINITE_IDS = ["inf-real", "inf-imag", "nan-real", "nan-imag"]


@pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
@pytest.mark.parametrize("where", ["eps_r", "mu_r"])
def test_medium_rejects_a_non_finite_part(bad, where):
    eps, mu = (bad, 1 + 0j) if where == "eps_r" else (2 + 0j, bad)
    with pytest.raises(InvalidMediumError) as info:
        Medium(eps, mu)
    assert str(info.value) == f"non-finite medium parameters: eps_r={eps!r} mu_r={mu!r}"


@pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
def test_sheet_rejects_a_non_finite_part(bad):
    with pytest.raises(ValidationError) as info:
        Sheet(bad)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"sheet reflection must be finite, got {bad!r}"


@pytest.mark.parametrize(
    "eps,mu", [(1e-200, 1e-200), (1e-300, 1e-30), (1e200, 1e200), (1e-200j, 1e-200 + 0j)]
)
def test_medium_rejects_a_product_that_is_zero_or_infinite(eps, mu):
    # s = sqrt(eps*mu) scales every wavenumber and refraction divides by it
    with pytest.raises(InvalidMediumError):
        Medium(eps, mu)


@pytest.mark.parametrize("eps,mu", [(1e-200, 1e200), (1e200, 1e-200)])
def test_medium_rejects_a_ratio_that_is_zero_or_infinite(eps, mu):
    # the wave impedance is ETA0*sqrt(mu/eps): 1e400 is inf and 1e-400 is 0,
    # which would reflect like a conductor
    with pytest.raises(InvalidMediumError):
        Medium(eps, mu)


def test_eta0_constant():
    assert ETA0 == 376.730313668
