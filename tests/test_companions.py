"""Companion models: radial compression, strip profile phase, grating rule."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planemirage.companions import (
    RadialTransform,
    StripProfile,
    grating_angle,
    pb_phase,
    radial_forward,
    radial_inverse,
    strip_height,
)
from planemirage.errors import DomainError, EvanescentOrderError, ValidationError

T = RadialTransform(r1=0.05, r2=0.30, q=3.0)


def test_radial_validation():
    with pytest.raises(ValidationError):
        RadialTransform(r1=0.0, r2=0.3, q=3.0)
    with pytest.raises(ValidationError):
        RadialTransform(r1=0.3, r2=0.1, q=3.0)
    with pytest.raises(ValidationError):
        RadialTransform(r1=0.05, r2=0.3, q=1.0)
    with pytest.raises(ValidationError):
        RadialTransform(r1=0.05, r2=0.3, q=7.0)  # r1*q >= r2


def test_radial_landmarks():
    assert radial_forward(T, 0.0) == 0.0
    # the breakpoint compresses onto r1 from both branch expressions
    breakpoint_ = T.r1 * T.q
    assert abs(radial_forward(T, breakpoint_) - T.r1) < 1e-15
    assert abs(T.a * breakpoint_ + T.b - T.r1) < 1e-15
    # the rim is fixed
    assert abs(radial_forward(T, T.r2) - T.r2) < 1e-15
    assert abs(radial_inverse(T, T.r1) - breakpoint_) < 1e-15
    assert abs(radial_inverse(T, T.r2) - T.r2) < 1e-15


def test_radial_continuity_at_the_breakpoint():
    breakpoint_ = T.r1 * T.q
    eps = 1e-9
    below = radial_forward(T, breakpoint_ - eps)
    above = radial_forward(T, breakpoint_ + eps)
    assert abs(above - below) < 1e-8


def test_radial_round_trip():
    for i in range(101):
        r = T.r2 * i / 100.0
        assert abs(radial_inverse(T, radial_forward(T, r)) - r) < 1e-12
        assert abs(radial_forward(T, radial_inverse(T, r)) - r) < 1e-12


def test_radial_monotone():
    samples = [T.r2 * i / 400.0 for i in range(401)]
    images = [radial_forward(T, r) for r in samples]
    assert all(y1 < y2 for y1, y2 in zip(images, images[1:]))


@given(st.floats(0.001, 0.1), st.floats(1.01, 4.0), st.floats(0.0, 1.0))
def test_radial_round_trip_random_transforms(r1, q, frac):
    r2 = r1 * q * 1.5 + 0.01
    t = RadialTransform(r1=r1, r2=r2, q=q)
    r = r2 * frac
    assert abs(radial_inverse(t, radial_forward(t, r)) - r) < 1e-9 * max(1.0, r2)


def test_radial_domain_errors():
    with pytest.raises(DomainError):
        radial_forward(T, -0.01)
    with pytest.raises(DomainError):
        radial_forward(T, T.r2 * 1.001)
    with pytest.raises(DomainError):
        radial_inverse(T, T.r2 * 1.001)


def test_strip_height():
    p = StripProfile(amplitude=0.8, period=0.012)
    assert strip_height(p, 0.0) == 0.0
    peak = p.amplitude * p.period / (2.0 * math.pi)
    assert abs(strip_height(p, p.period / 4.0) - peak) < 1e-15
    # periodicity
    for i in range(40):
        x = 0.012 * i / 40.0
        assert abs(strip_height(p, x + p.period) - strip_height(p, x)) < 1e-12


def test_a_strip_height_is_a_float_or_refused():
    # A*(P/2pi) past the float range is refused; just inside it, every height is finite
    with pytest.raises(ValidationError, match="peak height"):
        StripProfile(amplitude=1e308, period=1e297)
    p = StripProfile(amplitude=1e308, period=1e0)
    for i in range(9):
        assert math.isfinite(strip_height(p, p.period * i / 8.0))


def test_pb_phase_landmarks():
    p = StripProfile(amplitude=0.8, period=0.012)
    assert abs(pb_phase(p, 0.0) - 2.0 * math.atan(p.amplitude)) < 1e-12
    assert abs(pb_phase(p, p.period / 4.0)) < 1e-12
    assert abs(pb_phase(p, p.period / 2.0) + 2.0 * math.atan(p.amplitude)) < 1e-12
    flipped = StripProfile(amplitude=0.8, period=0.012, sigma=-1)
    for i in range(20):
        x = 0.012 * i / 20.0
        assert pb_phase(flipped, x) == -pb_phase(p, x)


def test_pb_phase_extremes():
    # steep strips approach a half-turn phase but never reach it
    steep = StripProfile(amplitude=1e6, period=0.012)
    assert abs(abs(pb_phase(steep, 0.0)) - math.pi) < 1e-5
    bound = 2.0 * math.atan(steep.amplitude)
    for i in range(101):
        x = 0.012 * i / 100.0
        assert abs(pb_phase(steep, x)) <= bound + 1e-12


def test_grating_landmarks():
    assert grating_angle(0, 0.03, 0.06) == 0.0
    assert abs(grating_angle(1, 0.03, 0.06) - math.radians(30.0)) < 1e-12
    assert abs(grating_angle(1, 0.06, 0.06) - math.radians(90.0)) < 1e-12
    for m in (1, 2, 3):
        assert abs(grating_angle(-m, 0.01, 0.06) + grating_angle(m, 0.01, 0.06)) < 1e-15


def test_grating_domain():
    with pytest.raises(EvanescentOrderError):
        grating_angle(2, 0.04, 0.06)
    with pytest.raises(ValidationError):
        grating_angle(1.0, 0.03, 0.06)
    with pytest.raises(ValidationError):
        grating_angle(1, -0.03, 0.06)
    with pytest.raises(ValidationError):
        grating_angle(1, 0.03, 0.0)


def test_strip_validation():
    with pytest.raises(ValidationError):
        StripProfile(amplitude=0.0, period=0.012)
    with pytest.raises(ValidationError):
        StripProfile(amplitude=0.8, period=0.012, sigma=2)
    p = StripProfile(amplitude=0.8, period=0.012)
    with pytest.raises(ValidationError):
        strip_height(p, float("nan"))
    with pytest.raises(ValidationError):
        pb_phase(p, float("inf"))
