"""Illusion synthesis: the inverse recursion against the paper's closed
forms and the transfer-matrix oracles, substitution, passivity."""

import cmath
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planemirage import wavecore
from planemirage.errors import (
    DegenerateSynthesisError,
    DomainError,
    OpenCircuitError,
    PlanemirageError,
    ValidationError,
)
from planemirage.gstc import impedance_from_reflection, susceptibility_from_reflection
from planemirage.sweep import builtin_scenario
from planemirage.synthesis import (
    IllusionProblem,
    Mode,
    front_sheet_reflection,
    reflective_inversion,
    sheet_state,
    sheet_terminated_reflection,
    synthesize,
    transmissive_inversion,
)
from planemirage.wavecore import (
    AIR,
    Layer,
    Medium,
    Open,
    Pec,
    PlaneWave,
    Sheet,
    Stack,
    angle_walk,
    chain_reflection,
)

from oracles import (
    chain_matrix,
    incident_state,
    interface_reflection,
    random_layers,
    random_lossy_medium,
    random_lossy_stack,
    random_termination,
    random_three_layer_stack,
    random_wave,
    reflective_closed_form,
    reflective_matrix_oracle,
    reflective_products,
    refracted_state,
    round_trips,
    segment_triples,
    transmissive_closed_form,
    transmissive_matrix_oracle,
    transmissive_products,
)

# frozen at 50 digits by tools/freeze_reference_values.py
GAMMA_ACTUAL_10GHZ_NORMAL = complex(-0.74501061868011169, -0.16700707092342785)
GAMMA_TARGET_10GHZ_NORMAL = complex(-0.32095773836347117, 0.10440953783442074)
RHO_4M_10GHZ_NORMAL = complex(-0.24331638725860397, 0.11992556356390652)
ETA_M_NORM_10GHZ_NORMAL = complex(0.59377287388674777, 0.15372926155599696)
RHO_1M_10GHZ_NORMAL = complex(0.58164870901283938, 0.34615834057534579)
CHI_E_10GHZ_NORMAL = complex(0.011203512955554583, -0.0039973679703352881)


def _builtin_problem(mode, frequency=10e9, theta=0.0):
    scenario = builtin_scenario()
    wave = PlaneWave(frequency, theta)
    return IllusionProblem(scenario.actual, scenario.target, wave, mode)


def test_frozen_reflective_point():
    problem = _builtin_problem(Mode.REFLECTIVE)
    assert abs(chain_reflection(problem.actual, problem.wave) - GAMMA_ACTUAL_10GHZ_NORMAL) < 1e-13
    assert abs(problem.gamma_i - GAMMA_TARGET_10GHZ_NORMAL) < 1e-13
    rho, eta_n, passive = synthesize(problem)
    assert abs(rho - RHO_4M_10GHZ_NORMAL) < 1e-13
    assert abs(reflective_closed_form(problem) - RHO_4M_10GHZ_NORMAL) < 1e-13
    assert abs(eta_n - ETA_M_NORM_10GHZ_NORMAL) < 1e-13
    assert passive is True


def test_frozen_transmissive_point():
    problem = _builtin_problem(Mode.TRANSMISSIVE)
    rho_1m, chi_e, _ = synthesize(problem)
    assert abs(rho_1m - RHO_1M_10GHZ_NORMAL) < 1e-13
    assert abs(transmissive_closed_form(problem) - RHO_1M_10GHZ_NORMAL) < 1e-13
    assert abs(chi_e - CHI_E_10GHZ_NORMAL) < 1e-14


def test_closed_form_matches_oracle_reflective():
    rng = random.Random(2001)
    for _ in range(100):
        problem = IllusionProblem(
            random_three_layer_stack(rng), random_lossy_stack(rng), random_wave(rng), Mode.REFLECTIVE
        )
        runtime = synthesize(problem)[0]
        closed = reflective_closed_form(problem)
        oracle = reflective_matrix_oracle(problem)
        assert abs(closed - oracle) < 1e-9 * max(1.0, abs(oracle))
        assert abs(runtime - oracle) < 1e-9 * max(1.0, abs(oracle))


def test_closed_form_matches_oracle_transmissive():
    rng = random.Random(2002)
    for _ in range(100):
        problem = IllusionProblem(
            random_three_layer_stack(rng), random_lossy_stack(rng), random_wave(rng), Mode.TRANSMISSIVE
        )
        runtime = synthesize(problem)[0]
        closed = transmissive_closed_form(problem)
        oracle = transmissive_matrix_oracle(problem)
        assert abs(closed - oracle) < 1e-9 * max(1.0, abs(oracle))
        assert abs(runtime - oracle) < 1e-9 * max(1.0, abs(oracle))


def test_substitution_reproduces_target_reflective():
    for theta_deg in (0.0, 22.5, 60.0):
        problem = _builtin_problem(Mode.REFLECTIVE, frequency=11e9, theta=math.radians(theta_deg))
        rho = synthesize(problem)[0]
        assert abs(sheet_terminated_reflection(problem, rho) - problem.gamma_i) < 1e-12


def test_substitution_reproduces_target_transmissive():
    for theta_deg in (0.0, 22.5, 60.0):
        problem = _builtin_problem(Mode.TRANSMISSIVE, frequency=11e9, theta=math.radians(theta_deg))
        rho = synthesize(problem)[0]
        assert abs(front_sheet_reflection(problem, rho) - problem.gamma_i) < 1e-12


@pytest.mark.parametrize("mode", [Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_substitution_checks_reuse_the_points_walk(monkeypatch, mode):
    # after synthesize, both checks fold the walk the problem already holds,
    # and the sheet-terminated one equals a fresh walk of the substituted stack
    rng = random.Random(2180)
    cases = []
    while len(cases) < 20:
        problem = IllusionProblem(random_lossy_stack(rng), random_lossy_stack(rng), random_wave(rng), mode)
        try:
            rho = synthesize(problem)[0]
        except DegenerateSynthesisError:
            continue
        actual = problem.actual
        substituted = Stack(actual.incident_medium, actual.layers, Sheet(rho))
        cases.append((problem, rho, chain_reflection(substituted, problem.wave)))
    calls = []
    real = wavecore.layer_wave_state

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(wavecore, "layer_wave_state", counted)
    for problem, rho, walked in cases:
        assert sheet_terminated_reflection(problem, rho) == walked
        front_sheet_reflection(problem, rho)
    assert calls == []


def test_self_illusion_reflective_returns_the_actual_termination():
    scenario = builtin_scenario()
    wave = PlaneWave(10.7e9, math.radians(33.5))
    # disguising a stack as itself asks for its own termination back
    problem = IllusionProblem(scenario.actual, scenario.actual, wave, Mode.REFLECTIVE)
    assert abs(synthesize(problem)[0] - (-1.0)) < 1e-12
    sheet_stack = Stack(AIR, scenario.actual.layers, Sheet(0.3 - 0.2j))
    problem = IllusionProblem(sheet_stack, sheet_stack, wave, Mode.REFLECTIVE)
    assert abs(synthesize(problem)[0] - (0.3 - 0.2j)) < 1e-12


def test_self_illusion_transmissive_returns_the_first_interface():
    wave = PlaneWave(9.3e9, math.radians(18.0))
    stack = Stack(
        AIR,
        (Layer(Medium(3.9 - 0.08j), 0.060), Layer(AIR, 0.120), Layer(Medium(2.1 - 0.0006j), 0.040)),
        Pec(),
    )
    problem = IllusionProblem(stack, stack, wave, Mode.TRANSMISSIVE)
    rho_1m = synthesize(problem)[0]
    inc = incident_state(AIR, wave.theta1)
    first = refracted_state(stack.layers[0].medium, inc)
    rho_1 = interface_reflection(inc, first)
    assert abs(rho_1m - rho_1) < 1e-12
    # air-fronted actual: the natural first interface is transparent
    scenario = builtin_scenario()
    problem = IllusionProblem(scenario.actual, scenario.actual, wave, Mode.TRANSMISSIVE)
    rho_1m, chi_e, _ = synthesize(problem)
    assert abs(rho_1m) < 1e-12
    assert abs(chi_e) < 1e-12


def test_the_tempting_grouping_is_the_reciprocal():
    # (rho_t*(A0 - B0))/(C - D) evaluates to rho_t/rho_4m, not rho_4m
    problem = _builtin_problem(Mode.REFLECTIVE, frequency=11.3e9, theta=math.radians(41.0))
    p = reflective_products(problem)
    rho_4m = synthesize(problem)[0]
    tempting = p.rho_t * (p.a0 - p.b0) / (p.c - p.d)
    assert abs(tempting - p.rho_t / rho_4m) < 1e-12 * abs(tempting)
    assert abs(tempting - rho_4m) > 1e-2  # visibly not the answer here

    scenario = builtin_scenario()
    self_problem = IllusionProblem(scenario.actual, scenario.actual, problem.wave, Mode.REFLECTIVE)
    sp = reflective_products(self_problem)
    self_tempting = sp.rho_t * (sp.a0 - sp.b0) / (sp.c - sp.d)
    assert abs(self_tempting - 1.0) < 1e-12  # the self-illusion blind spot

    t_problem = _builtin_problem(Mode.TRANSMISSIVE, frequency=11.3e9, theta=math.radians(41.0))
    tp = transmissive_products(t_problem)
    rho_1m = synthesize(t_problem)[0]
    t_tempting = (tp.a - tp.b) / (tp.c - tp.d)
    assert abs(t_tempting - 1.0 / rho_1m) < 1e-12 * abs(t_tempting)


def test_identity_chain_synthesis_is_the_target_reflection():
    # three zero-thickness air layers: the chain matrix is the identity
    actual = Stack(AIR, (Layer(AIR, 0.0), Layer(AIR, 0.0), Layer(AIR, 0.0)), Pec())
    target = Stack(AIR, (Layer(Medium(3.9 - 0.08j), 0.060),), Pec())
    wave = PlaneWave(10e9, math.radians(12.0))
    problem = IllusionProblem(actual, target, wave, Mode.REFLECTIVE)
    g_i = problem.gamma_i
    assert abs(synthesize(problem)[0] - g_i) < 1e-14
    assert abs(reflective_closed_form(problem) - g_i) < 1e-14
    assert abs(reflective_matrix_oracle(problem) - g_i) < 1e-14


def _air_over_sheet(wave, gamma, thickness=0.015):
    """A target stack, an air layer over a sheet, whose total reflection is gamma."""
    shell = Stack(AIR, (Layer(AIR, thickness),), Sheet(0j))
    (z2,) = round_trips(angle_walk(shell, wave.theta1), wave.k0)
    return Stack(AIR, (Layer(AIR, thickness),), Sheet(gamma / z2))


def _unreachable_target(actual, wave, rho_probe):
    """Target whose reflection rho_probe(M) is computed from the actual chain matrix."""
    return _air_over_sheet(wave, rho_probe(chain_matrix(segment_triples(actual, wave))))


def test_degenerate_reflective_target_raises():
    scenario = builtin_scenario()
    wave = PlaneWave(10e9, 0.0)
    # a target reflection equal to m22/m12 is the image of rho -> infinity
    target = _unreachable_target(scenario.actual, wave, lambda m: m[3] / m[1])
    problem = IllusionProblem(scenario.actual, target, wave, Mode.REFLECTIVE)
    with pytest.raises(DegenerateSynthesisError):
        synthesize(problem)
    with pytest.raises(DegenerateSynthesisError):
        reflective_closed_form(problem)
    with pytest.raises(DegenerateSynthesisError):
        reflective_matrix_oracle(problem)


def test_degeneracy_is_judged_on_the_composed_map():
    # Gamma_i = Z_1^2/rho_2 sends the backward recursion through Gamma_3 =
    # infinity (the inner step's 1 - rho_2*Gamma_2 cancels to rounding),
    # yet the composed map is regular and asks for an active sheet.
    scenario = builtin_scenario()
    wave = PlaneWave(10e9, 0.0)
    walk = angle_walk(scenario.actual, wave.theta1)
    z2_1, rho_2 = round_trips(walk, wave.k0)[0], walk[0][1][0]
    target = _air_over_sheet(wave, z2_1 / rho_2, thickness=0.030)
    problem = IllusionProblem(scenario.actual, target, wave, Mode.REFLECTIVE)
    gamma_2 = problem.gamma_i / z2_1  # rho_1 = 0: air onto air
    assert abs(1.0 - rho_2 * gamma_2) < 1e-12  # a per-step test would raise here
    rho_4m = synthesize(problem)[0]
    closed = reflective_closed_form(problem)
    assert abs(closed - (-3.0472 - 0.1487j)) < 1e-4
    assert abs(rho_4m - closed) < 1e-9 * abs(closed)
    assert synthesize(problem)[2] is False


@pytest.mark.parametrize("rho", [1.0, -1.0])
def test_an_interface_that_reflects_fully_hides_the_terminating_sheet(rho):
    # rho_1 = +-1 maps every Gamma_2 to rho_1: the step's 1 - rho_1^2, and so
    # the composed map's determinant, is 0 where the map is still regular
    walk = (((complex(rho), 0.01 + 0.0j), (0.2 + 0.0j, 0.02 + 0.0j)), -1.0 + 0.0j)
    with pytest.raises(DegenerateSynthesisError, match="hides the terminating sheet"):
        reflective_inversion(walk, 200.0, 0.3 + 0.1j)


def test_cancellation_is_judged_against_the_magnitudes_q_is_summed_from():
    # one layer, rho_1 = 0.5j: q = Z^2 (1 - rho_1 Gamma_i) cancels to 1.5e-12
    # of |Z^2|, while q is summed from magnitudes |Z^2| (1 + |rho_1| |Gamma_i|),
    # about 2 |Z^2|; so q is degenerate against its own scale, not against 1
    rho_1 = 0.5j
    gamma_i = (1.0 - 1.5e-12) / rho_1
    walk = (((rho_1, 0.01 + 0.0j),), -1.0 + 0.0j)
    with pytest.raises(DegenerateSynthesisError, match="no terminating sheet produces"):
        reflective_inversion(walk, 200.0, gamma_i)


def test_thick_lossy_layer_makes_reflective_synthesis_degenerate():
    # Z^2 underflows to 0: nothing behind the 3 m layer changes Gamma
    actual = Stack(AIR, (Layer(AIR, 0.1), Layer(Medium(4.0 - 4.0j), 3.0), Layer(AIR, 0.1)), Pec())
    target = builtin_scenario().target
    wave = PlaneWave(20e9)
    with pytest.raises(DegenerateSynthesisError):
        synthesize(IllusionProblem(actual, target, wave, Mode.REFLECTIVE))
    # the front sheet still works: the stack behind it reflects like a half-space
    rho_1m = synthesize(IllusionProblem(actual, target, wave, Mode.TRANSMISSIVE))[0]
    problem = IllusionProblem(actual, target, wave, Mode.TRANSMISSIVE)
    assert abs(front_sheet_reflection(problem, rho_1m) - problem.gamma_i) < 1e-12


@pytest.mark.parametrize("n_layers", [1, 2, 5, 40])
def test_synthesis_on_any_number_of_layers(n_layers):
    # lossy walls 1-200 mm deep in total, cut into n_layers random layers
    rng = random.Random(2100 + n_layers)
    for _ in range(20):
        layers = tuple(
            Layer(random_lossy_medium(rng), rng.uniform(1e-3, 200e-3) / n_layers)
            for _ in range(n_layers)
        )
        actual = Stack(AIR, layers, random_termination(rng))
        target = random_lossy_stack(rng)
        wave = random_wave(rng)
        reflective = IllusionProblem(actual, target, wave, Mode.REFLECTIVE)
        g_i = reflective.gamma_i
        rho_4m = synthesize(reflective)[0]
        oracle = reflective_matrix_oracle(reflective)
        assert abs(sheet_terminated_reflection(reflective, rho_4m) - g_i) < 1e-9
        assert abs(rho_4m - oracle) < 1e-9 * max(1.0, abs(oracle))
        transmissive = IllusionProblem(actual, target, wave, Mode.TRANSMISSIVE)
        rho_1m = synthesize(transmissive)[0]
        oracle = transmissive_matrix_oracle(transmissive)
        assert abs(front_sheet_reflection(transmissive, rho_1m) - g_i) < 1e-9
        assert abs(rho_1m - oracle) < 1e-9 * max(1.0, abs(oracle))


def test_transmissive_unit_front_reflection_raises():
    scenario = builtin_scenario()
    wave = PlaneWave(10e9, 0.0)
    base = IllusionProblem(scenario.actual, scenario.target, wave, Mode.TRANSMISSIVE)
    target = _air_over_sheet(wave, front_sheet_reflection(base, 1.0))
    problem = IllusionProblem(scenario.actual, target, wave, Mode.TRANSMISSIVE)
    with pytest.raises(DegenerateSynthesisError, match="no finite susceptibility"):
        synthesize(problem)


def _passive(rho):
    # a walk with no layer: the reflective inversion asks for Gamma_i itself
    return sheet_state(Mode.REFLECTIVE, ((), -1.0), 200.0, rho, 1.0)[2]


def test_passivity_verdict():
    assert _passive(0.5) is True
    assert _passive(-1.0) is True
    assert _passive(1j) is True
    assert _passive(1.2) is False
    assert _passive(1.05 * cmath.exp(2.1j)) is False
    with pytest.raises(OpenCircuitError):
        _passive(1.0)  # open-circuit boundary point has no impedance


def test_a_reflection_whose_magnitude_overflows_is_a_typed_error():
    # finite parts, but abs() of it overflows: |huge| is past the float range
    huge = complex(1.5e308, 1.5e308)
    with pytest.raises(ValidationError):
        impedance_from_reflection(huge)
    with pytest.raises(ValidationError):
        susceptibility_from_reflection(huge, 200.0, 1.0)
    with pytest.raises(DomainError):
        _passive(huge)
    with pytest.raises(DomainError):
        sheet_state(Mode.TRANSMISSIVE, (((0.0, 0j),), -1.0), 200.0, huge, 1.0)


@pytest.mark.parametrize(
    "k0,cos_theta,message",
    [
        (0.0, 1.0, "k0 must be positive"),
        (200.0, 0.0, "grazing incidence"),
        (200.0, complex(math.nan, 0.0), "cos_theta must be finite"),
    ],
    ids=["k0-zero", "grazing", "cos-nan"],
)
def test_a_front_sheet_state_checks_its_wave_as_the_susceptibility_does(k0, cos_theta, message):
    walk = angle_walk(builtin_scenario().actual, 0.0)
    with pytest.raises(ValidationError, match=message):
        susceptibility_from_reflection(0.5, k0, cos_theta)
    with pytest.raises(ValidationError, match=message):
        sheet_state(Mode.TRANSMISSIVE, walk, k0, 0.5, cos_theta)


def test_a_front_sheet_inversion_without_layers_is_a_typed_error():
    with pytest.raises(ValidationError, match="at least one layer"):
        transmissive_inversion(((), -1.0), 200.0, 0.5)
    with pytest.raises(ValidationError, match="at least one layer"):
        sheet_state(Mode.TRANSMISSIVE, ((), -1.0), 200.0, 0.5, 1.0)


@pytest.mark.parametrize("rho", [math.nan, math.inf, complex(0.5, -math.inf)], ids=["nan", "inf", "inf-imag"])
def test_both_substitution_checks_refuse_a_non_finite_sheet_reflection(rho):
    problem = _builtin_problem(Mode.TRANSMISSIVE)
    for check in (sheet_terminated_reflection, front_sheet_reflection):
        with pytest.raises(ValidationError, match="sheet reflection must be finite"):
            check(problem, rho)


def test_mode_and_problem_validation():
    scenario = builtin_scenario()
    wave = PlaneWave(10e9, 0.0)
    # any depth of actual stack is a valid problem
    two_layer = Stack(AIR, scenario.actual.layers[:2], Pec())
    problem = IllusionProblem(two_layer, scenario.target, wave, Mode.REFLECTIVE)
    rho = synthesize(problem)[0]
    assert abs(sheet_terminated_reflection(problem, rho) - problem.gamma_i) < 1e-12
    with pytest.raises(ValidationError):
        IllusionProblem(scenario.actual, scenario.target, wave, "reflective")


@pytest.mark.parametrize(
    "mode,cos_theta", [("reflective", math.cos(math.radians(10.0))), (None, 0.0)], ids=["string", "none"]
)
def test_sheet_state_refuses_a_mode_that_is_not_a_mode(mode, cos_theta):
    # sheet_plan reads every mode but Mode.REFLECTIVE as transmissive, so a
    # value that is not a Mode would skip the transmissive check of the wave:
    # "reflective" would give the front sheet, and None with a grazing
    # cos_theta would divide by zero
    walk = angle_walk(builtin_scenario().actual, math.radians(10.0))
    with pytest.raises(ValidationError, match="^mode must be a Mode, got "):
        sheet_state(mode, walk, PlaneWave(10e9).k0, 0.2, cos_theta)


def test_termination_independence_of_transmissive_front():
    # front substitution at the natural rho_1 returns the natural reflection
    scenario = builtin_scenario()
    wave = PlaneWave(11e9, math.radians(25.0))
    problem = IllusionProblem(scenario.actual, scenario.target, wave, Mode.TRANSMISSIVE)
    natural = chain_reflection(scenario.actual, wave)
    rho_1 = angle_walk(scenario.actual, wave.theta1)[0][0][0]
    assert abs(front_sheet_reflection(problem, rho_1) - natural) < 1e-12


def test_termination_reflection_passthrough():
    scenario = builtin_scenario()
    assert angle_walk(scenario.actual, 0.0)[1] == -1.0
    assert angle_walk(scenario.target, 0.0)[1] == 0.0


def test_deep_lossy_wall_hides_its_termination():
    # 40 random lossy layers of 1-200 mm: the round trip through the wall
    # is attenuated far below rounding, so no sheet behind it can act
    rng = random.Random(2140)
    actual = Stack(AIR, random_layers(rng, random_lossy_medium, 40), Pec())
    wave = PlaneWave(10e9, 0.0)
    attenuation = 1.0
    for z2 in round_trips(angle_walk(actual, wave.theta1), wave.k0):
        attenuation *= abs(z2)
    assert attenuation < 1e-30
    problem = IllusionProblem(actual, builtin_scenario().target, wave, Mode.REFLECTIVE)
    with pytest.raises(DegenerateSynthesisError, match="hides"):
        synthesize(problem)


# A layer whose n = eta*cos(theta) at 45 degrees has parts of about 1.3e308:
# its interface sum with air is finite, but its magnitude is past the float
# range, so abs() of it raises OverflowError.
_HUGE_N_LAYER = Layer(Medium(complex(1e-306, -1e-306)), 1e-3)


def test_an_interface_sum_past_the_float_range_raises_only_typed_errors():
    actual = Stack(AIR, (_HUGE_N_LAYER,), Pec())
    target = Stack(AIR, (Layer(Medium(2.0), 10e-3),), Open(AIR))
    wave = PlaneWave(10e9, math.radians(45.0))
    with pytest.raises(DomainError):
        chain_reflection(actual, wave)
    with pytest.raises(DegenerateSynthesisError):
        synthesize(IllusionProblem(actual, target, wave, Mode.REFLECTIVE))
    rho, chi_e, _ = synthesize(IllusionProblem(actual, target, wave, Mode.TRANSMISSIVE))
    assert cmath.isfinite(rho) and cmath.isfinite(chi_e)


def test_a_round_trip_whose_phase_overflows_is_a_domain_error():
    # k0 Re(a) of 1e20 m of air at 1e297 Hz overflows, so e^{-j k0 a} has an
    # infinite phase and cmath.exp raises ValueError, not OverflowError
    actual = Stack(AIR, (Layer(AIR, 1e20),), Pec())
    target = Stack(AIR, (Layer(Medium(2.0), 10e-3),), Open(AIR))
    wave = PlaneWave(1e297, 0.0)
    with pytest.raises(DomainError):
        chain_reflection(actual, wave)
    for mode in Mode:
        with pytest.raises(DomainError, match="inversion is not finite"):
            synthesize(IllusionProblem(actual, target, wave, mode))


# One part of eps or mu: zero, or a sign times a power of ten from 1e-307 to 1e307.
_wide_part = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exp: sign * 10.0**exp, st.sampled_from((-1.0, 1.0)), st.floats(-307.0, 307.0)),
)
_wide_medium = st.tuples(st.builds(complex, _wide_part, _wide_part), st.builds(complex, _wide_part, _wide_part))


@settings(max_examples=300, deadline=None)
@example(layers=[((1e-306 - 1e-306j, 1 + 0j), 1.0)], open_medium=None, theta_deg=45.0, f_ghz=10.0)
# the round trip across the first layer overflows, and the front-sheet
# inversion forms it outside the walk's fold
@example(layers=[((-1j, -1e9 + 0j), 1.0)], open_medium=None, theta_deg=0.0, f_ghz=1.0)
@given(
    layers=st.lists(st.tuples(_wide_medium, st.floats(0.0, 100.0)), min_size=1, max_size=4),
    open_medium=st.one_of(st.none(), _wide_medium),  # None: a PEC termination
    theta_deg=st.floats(0.0, 89.9),
    f_ghz=st.floats(0.1, 40.0),
)
def test_media_across_the_float_range_raise_only_typed_errors(layers, open_medium, theta_deg, f_ghz):
    # every medium, layer and stack a constructor accepts gives a finite
    # answer or a PlanemirageError, as actual and as target stack
    try:
        termination = Pec() if open_medium is None else Open(Medium(*open_medium))
        stack = Stack(AIR, tuple(Layer(Medium(*m), t * 1e-3) for m, t in layers), termination)
    except PlanemirageError:
        return
    other = Stack(AIR, (Layer(Medium(2.0), 10e-3),), Open(AIR))
    wave = PlaneWave(f_ghz * 1e9, math.radians(theta_deg))
    problems = [
        IllusionProblem(actual, target, wave, mode)
        for mode in Mode
        for actual, target in ((stack, other), (other, stack))
    ]
    for problem in [None, *problems]:  # None: chain_reflection of the stack
        try:
            values = [chain_reflection(stack, wave)] if problem is None else synthesize(problem)[:2]
        except PlanemirageError:
            continue
        assert all(cmath.isfinite(v) for v in values)
