"""Core propagation: interface coefficients, phases, chains, terminations."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from planemirage.errors import DomainError
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
    chain_reflection,
    chain_segments,
    fold_reflection,
    incident_wave_state,
    interface_reflection,
    layer_wave_state,
)

from oracles import (
    IDENTITY,
    determinant,
    interface_coefficients,
    linear_system_reflection,
    matmul,
    matrix_reflection,
    propagation_phase,
    random_lossless_pec_stack,
    random_lossy_stack,
    random_wave,
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
    inc = incident_wave_state(AIR, wave.theta1)
    return inc, layer_wave_state(medium, inc)


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
    inc = incident_wave_state(Medium(complex(re1, -re1 * tan1)), wave.theta1)
    nxt = layer_wave_state(Medium(complex(re2, -re2 * tan2)), inc)
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


def test_passive_layer_decays_toward_termination():
    # lossy and evanescent regions must attenuate, never grow
    wave = PlaneWave(10e9, math.radians(70.0))
    _, lossy = _states(FR4ISH, wave)
    assert (lossy.s_n * lossy.cos_n).imag < 0.0
    assert abs(propagation_phase(lossy, 0.05, wave.k0)) < 1.0

    # total internal reflection: dense incident medium into air
    dense = Stack(Medium(4.0 + 0j), (Layer(AIR, 0.01),), Pec())
    state = layer_wave_state(AIR, incident_wave_state(dense.incident_medium, wave.theta1))
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
    assert chain_segments(walled, wave)[0][1][1] == 0.0
    half_space = Stack(AIR, (Layer(AIR, 0.1),), Open(lossy))
    assert abs(chain_reflection(walled, wave) - chain_reflection(half_space, wave)) < 1e-12


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
    rho_1, rho_2, z2 = 0.4 + 0.1j, 0.5, 1.0 + 0.0j
    assert abs(fold_reflection(((rho_1, z2), (rho_2, z2)), -1.0 / rho_2) - 1.0 / rho_1) < 1e-15


def test_thick_gain_layer_overflow_is_a_domain_error():
    # Im eps > 0 grows toward the termination: e^{2 Im(k) l} passes 1e308 across 3 m at 20 GHz
    gain = Medium(4.0 + 4.0j)
    wave = PlaneWave(20e9)
    state = layer_wave_state(gain, incident_wave_state(AIR, wave.theta1))
    with pytest.raises(DomainError):
        propagation_phase(state, 3.0, wave.k0)
    with pytest.raises(DomainError):
        chain_reflection(Stack(AIR, (Layer(gain, 3.0),), Pec()), wave)


def test_gain_layers_that_overflow_the_fold_are_a_domain_error():
    # each round trip is finite (about e^381), their product is not: the pair p/q is nan
    gain = Layer(Medium(4.0 + 4.0j), 0.5)
    stack = Stack(AIR, (gain, Layer(AIR, 0.01), gain), Pec())
    segments, rho_t = chain_segments(stack, PlaneWave(20e9))
    assert all(math.isfinite(abs(z2)) for _, z2 in segments)
    with pytest.raises(DomainError):
        fold_reflection(segments, rho_t)
    # both parts of the denominator are finite, its magnitude is not
    with pytest.raises(DomainError):
        fold_reflection(((0.99, complex(1.5e308, 1.5e308)),), 0.99)


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


def test_chain_segments_shape():
    wave = PlaneWave(10e9, math.radians(25.0))
    stack = Stack(AIR, (Layer(AIR, 0.12), Layer(FR4ISH, 0.06), Layer(AIR, 0.12)), Pec())
    segments, rho_t = chain_segments(stack, wave)
    assert len(segments) == 3
    assert abs(segments[0][0]) < 1e-15  # air onto air
    assert abs(segments[1][0]) > 0.1
    assert rho_t == -1.0
    # (rho_n, Z_n^2): the second entry is the round trip across the layer
    state = incident_wave_state(AIR, wave.theta1)
    for layer, (rho, z2) in zip(stack.layers, segments):
        nxt = layer_wave_state(layer.medium, state)
        assert rho == interface_reflection(state, nxt)
        assert abs(z2 - propagation_phase(nxt, layer.thickness, wave.k0) ** 2) <= 1e-15 * abs(z2)
        state = nxt


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


@pytest.mark.parametrize(
    "eps,mu", [(1e-200, 1e-200), (1e-300, 1e-30), (1e200, 1e200), (1e-200j, 1e-200 + 0j)]
)
def test_medium_rejects_a_product_that_is_zero_or_infinite(eps, mu):
    # s = sqrt(eps*mu) scales every wavenumber and refraction divides by it
    with pytest.raises(InvalidMediumError):
        Medium(eps, mu)


def test_eta0_constant():
    assert ETA0 == 376.730313668
