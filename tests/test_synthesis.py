"""Illusion synthesis: the inverse recursion against the paper's closed
forms and the transfer-matrix oracles, substitution, passivity."""

import cmath
import dataclasses
import math
import random

import pytest

from planemirage.cli import builtin_scenario
from planemirage import wavecore
from planemirage.errors import DegenerateSynthesisError, OpenCircuitError, ValidationError
from planemirage.synthesis import (
    IllusionProblem,
    Mode,
    front_sheet_reflection,
    sheet_state,
    sheet_terminated_reflection,
    synthesize,
)
from planemirage.wavecore import (
    AIR,
    Layer,
    Medium,
    Pec,
    PlaneWave,
    Sheet,
    Stack,
    angle_walk,
    chain_reflection,
    chain_segments,
    incident_wave_state,
    interface_reflection,
    layer_wave_state,
)

from oracles import (
    chain_matrix,
    random_layers,
    random_lossy_medium,
    random_lossy_stack,
    random_termination,
    random_three_layer_stack,
    random_wave,
    reflective_closed_form,
    reflective_matrix_oracle,
    reflective_products,
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
        substituted = dataclasses.replace(problem.actual, termination=Sheet(rho))
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
    inc = incident_wave_state(AIR, wave.theta1)
    first = layer_wave_state(stack.layers[0].medium, inc)
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
    z2 = chain_segments(shell, wave)[0][0][1]
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
    (_, z2_1), (rho_2, _), _ = chain_segments(scenario.actual, wave)[0]
    target = _air_over_sheet(wave, z2_1 / rho_2, thickness=0.030)
    problem = IllusionProblem(scenario.actual, target, wave, Mode.REFLECTIVE)
    gamma_2 = problem.gamma_i / z2_1  # rho_1 = 0: air onto air
    assert abs(1.0 - rho_2 * gamma_2) < 1e-12  # a per-step test would raise here
    rho_4m = synthesize(problem)[0]
    closed = reflective_closed_form(problem)
    assert abs(closed - (-3.0472 - 0.1487j)) < 1e-4
    assert abs(rho_4m - closed) < 1e-9 * abs(closed)
    assert synthesize(problem)[2] is False


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
    # no segments: the reflective inversion asks for Gamma_i itself
    return sheet_state(Mode.REFLECTIVE, (), -1.0, rho, 200.0, 1.0)[2]


def test_passivity_verdict():
    assert _passive(0.5) is True
    assert _passive(-1.0) is True
    assert _passive(1j) is True
    assert _passive(1.2) is False
    assert _passive(1.05 * cmath.exp(2.1j)) is False
    with pytest.raises(OpenCircuitError):
        _passive(1.0)  # open-circuit boundary point has no impedance


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


def test_termination_independence_of_transmissive_front():
    # front substitution at the natural rho_1 returns the natural reflection
    scenario = builtin_scenario()
    wave = PlaneWave(11e9, math.radians(25.0))
    problem = IllusionProblem(scenario.actual, scenario.target, wave, Mode.TRANSMISSIVE)
    natural = chain_reflection(scenario.actual, wave)
    rho_1 = chain_segments(scenario.actual, wave)[0][0][0]
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
    for _, z2 in chain_segments(actual, wave)[0]:
        attenuation *= abs(z2)
    assert attenuation < 1e-30
    problem = IllusionProblem(actual, builtin_scenario().target, wave, Mode.REFLECTIVE)
    with pytest.raises(DegenerateSynthesisError, match="hides"):
        synthesize(problem)
