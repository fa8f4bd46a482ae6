"""Sheet descriptions: susceptibility and impedance maps, against the
forward maps and the IBC residuals kept in tests/oracles.py."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planemirage.errors import OpenCircuitError, SheetResonanceError, ValidationError
from planemirage.gstc import impedance_from_reflection, susceptibility_from_reflection
from planemirage.wavecore import ETA0

from oracles import (
    DivisionDomainError,
    FieldJump,
    Susceptibilities,
    ibc_residual,
    reflection_from_impedance,
    sheet_coefficients,
    surface_currents,
)


def test_transparent_sheet():
    tau, rho = sheet_coefficients(Susceptibilities(0j, 0j), 200.0, 1.0)
    assert tau == 1.0
    assert rho == 0.0


def test_equal_susceptibilities_match_closed_form():
    chi = 0.004 - 0.0005j
    k0 = 2.0 * math.pi * 10e9 / 299792458.0
    kh = k0 / 2.0
    cross = kh * kh * chi * chi
    tau, rho = sheet_coefficients(Susceptibilities(chi, chi), k0, 1.0)
    assert abs(tau - (1.0 - cross) / (1.0 + cross)) < 1e-15
    assert abs(rho - 2j * kh * chi / (1.0 + cross)) < 1e-15


def test_lossless_electric_sheet_conserves_energy():
    for k0 in (20.0, 200.0, 2000.0):
        for cos_t in (1.0, math.cos(math.radians(40.0))):
            for i in range(41):
                chi_e = -0.1 + 0.005 * i
                tau, rho = sheet_coefficients(Susceptibilities(chi_e, 0j), k0, cos_t)
                assert abs(abs(tau) ** 2 + abs(rho) ** 2 - 1.0) < 1e-14


@given(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05), st.floats(0.0, 75.0))
def test_susceptibility_reflection_round_trip(chi_re, chi_im, theta_deg):
    k0 = 2.0 * math.pi * 8e9 / 299792458.0
    cos_t = math.cos(math.radians(theta_deg))
    chi = Susceptibilities(complex(chi_re, chi_im), 0j)
    _, rho = sheet_coefficients(chi, k0, cos_t)
    back = susceptibility_from_reflection(rho, k0, cos_t)
    assert abs(back - chi.chi_e) < 1e-12 * max(1.0, abs(chi.chi_e))


def test_sheet_resonance_raises():
    # k0 = 2 makes kh exactly 1, so chi_e = j zeroes the denominator
    with pytest.raises(SheetResonanceError):
        sheet_coefficients(Susceptibilities(1j, 0j), 2.0, 1.0)
    with pytest.raises(SheetResonanceError):
        susceptibility_from_reflection(1.0, 200.0, 1.0)


def test_sheet_coefficient_domain_checks():
    with pytest.raises(ValidationError):
        sheet_coefficients(Susceptibilities(0j), 0.0, 1.0)
    with pytest.raises(ValidationError):
        sheet_coefficients(Susceptibilities(0j), 200.0, 0.0)
    with pytest.raises(ValidationError):
        susceptibility_from_reflection(0.5, -3.0, 1.0)


def test_impedance_map_landmarks():
    assert abs(impedance_from_reflection(0.0) * ETA0 - ETA0) < 1e-12
    assert abs(impedance_from_reflection(-1.0) * ETA0) == 0.0
    # rho = j maps to a purely reactive sheet of magnitude eta0
    eta = impedance_from_reflection(1j) * ETA0
    assert abs(eta - 1j * ETA0) < 1e-12
    with pytest.raises(OpenCircuitError):
        impedance_from_reflection(1.0)


def test_reflection_from_impedance_landmarks():
    assert reflection_from_impedance(ETA0) == 0.0
    assert reflection_from_impedance(0.0) == -1.0
    with pytest.raises(DivisionDomainError):
        reflection_from_impedance(-ETA0)


@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
def test_impedance_round_trip(re, im):
    rho = complex(re, im)
    if abs(1.0 - rho) < 1e-3:
        return
    assert abs(reflection_from_impedance(impedance_from_reflection(rho) * ETA0) - rho) < 1e-12


def test_surface_currents():
    jump = FieldJump(e1=1.0, e2=1.0, h1=0.5j, h2=0.5j)
    assert surface_currents(jump) == (0.0, 0.0)
    jump = FieldJump(e1=1.0, e2=0.25 - 0.5j, h1=2.0j, h2=-1.0)
    j_e, j_m = surface_currents(jump)
    assert j_e == -1.0 - 2.0j
    assert j_m == -0.75 - 0.5j


def test_ibc_residual_vanishes_for_consistent_jump():
    z_e = 150.0 - 40.0j
    z_m = 90.0 + 10.0j
    e_av = 0.8 + 0.3j
    h_av = -0.2 + 0.6j
    j_e = e_av / z_e
    j_m = h_av * z_m
    jump = FieldJump(
        e1=e_av - j_m / 2.0,
        e2=e_av + j_m / 2.0,
        h1=h_av - j_e / 2.0,
        h2=h_av + j_e / 2.0,
    )
    r_e, r_m = ibc_residual(jump, z_e, z_m)
    assert abs(r_e) < 1e-12
    assert abs(r_m) < 1e-12


def test_ibc_residual_scales_with_impedance_mismatch():
    jump = FieldJump(e1=1.0, e2=1.0, h1=-0.5, h2=0.5)
    z_m = 200.0 + 0j
    _, r_m_1 = ibc_residual(jump, 100.0, z_m)
    _, r_m_2 = ibc_residual(jump, 100.0, 2.0 * z_m)
    assert abs((r_m_2 - r_m_1) - (-jump.h_av * z_m)) < 1e-12


def test_ibc_pec_limit():
    balanced = FieldJump(e1=-1.0, e2=1.0, h1=0.0, h2=2.0)  # e_av = 0
    r_e, _ = ibc_residual(balanced, 0.0, 50.0)
    assert r_e == surface_currents(balanced)[0]
    unbalanced = FieldJump(e1=1.0, e2=1.0, h1=0.0, h2=2.0)
    with pytest.raises(DivisionDomainError):
        ibc_residual(unbalanced, 0.0, 50.0)


def test_oblique_reduces_to_normal_at_zero_angle():
    k0 = 2.0 * math.pi * 12e9 / 299792458.0
    chi = Susceptibilities(0.003 - 0.0002j, 0j)
    assert sheet_coefficients(chi, k0, 1.0) == sheet_coefficients(chi, k0, cmath.cos(0.0))
