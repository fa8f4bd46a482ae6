"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Each test prints a `criterion NN:` line with the measured figure (visible
under pytest -s); `pytest -v` shows one pass/fail line per criterion.
"""

import math
import random
import subprocess
import sys

from planemirage.cli import main
from planemirage.companions import (
    RadialTransform,
    StripProfile,
    grating_angle,
    pb_phase,
    radial_forward,
    radial_inverse,
)
from planemirage.sweep import builtin_scenario
from planemirage.synthesis import (
    IllusionProblem,
    Mode,
    front_sheet_reflection,
    sheet_terminated_reflection,
    synthesize,
)
from planemirage.unitcell import load_sample_map, select_state
from planemirage.wavecore import ETA0, PlaneWave, chain_reflection

from oracles import (
    Susceptibilities,
    linear_system_reflection,
    random_lossless_pec_stack,
    random_lossy_stack,
    random_three_layer_stack,
    random_wave,
    reflective_closed_form,
    reflective_products,
    sheet_coefficients,
)


def _grid_waves():
    config = builtin_scenario()
    return [
        PlaneWave(f_ghz * 1e9, math.radians(theta_deg))
        for f_ghz in config.freq_ghz.values()
        for theta_deg in config.theta_deg.values()
    ]


def test_criterion_01_energy_conservation():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(200):
        stack = random_lossless_pec_stack(rng)
        frequency = rng.uniform(1e9, 20e9)
        for theta_deg in range(0, 81):
            wave = PlaneWave(frequency, math.radians(theta_deg))
            worst = max(worst, abs(abs(chain_reflection(stack, wave)) - 1.0))
    print(f"criterion 01: max ||Gamma|-1| = {worst:.3e} over 200 lossless walls x 81 angles")
    assert worst < 1e-12


def test_criterion_02_linear_system_oracle_equivalence():
    rng = random.Random(102)
    worst = 0.0
    for _ in range(1000):
        stack = random_lossy_stack(rng)
        wave = random_wave(rng)
        got = chain_reflection(stack, wave)
        want = linear_system_reflection(stack, wave)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    print(f"criterion 02: max relative error vs field-matching oracle = {worst:.3e} over 1000 stacks")
    assert worst < 1e-9


def test_criterion_03_closed_form_vs_oracle():
    # the runtime inverse recursion against the paper's four-product closed form
    rng = random.Random(103)
    worst = 0.0
    for _ in range(1000):
        problem = IllusionProblem(
            random_three_layer_stack(rng), random_lossy_stack(rng), random_wave(rng), Mode.REFLECTIVE
        )
        closed = reflective_closed_form(problem)
        runtime = synthesize(problem)[0]
        worst = max(worst, abs(closed - runtime) / max(abs(runtime), 1e-12))
    config = builtin_scenario()
    worst_grid = 0.0
    worst_tempting = 0.0
    for wave in _grid_waves():
        problem = IllusionProblem(config.actual, config.target, wave, Mode.REFLECTIVE)
        closed = reflective_closed_form(problem)
        runtime = synthesize(problem)[0]
        worst_grid = max(worst_grid, abs(closed - runtime) / max(abs(runtime), 1e-12))
        p = reflective_products(problem)
        tempting = p.rho_t * (p.a0 - p.b0) / (p.c - p.d)
        worst_tempting = max(worst_tempting, abs(tempting - runtime) / max(abs(runtime), 1e-12))
    print(
        f"criterion 03: closed form vs reflection recursion max rel = {max(worst, worst_grid):.3e} "
        f"(1000 random problems + full demonstration grid)"
    )
    print(
        "criterion 03: finding - grouping the four products as rho_T*(A0-B0)/(C-D) "
        f"deviates from the recursion by up to {worst_tempting:.3e} (it returns rho_T/rho_4m); "
        "the (C-D)/(A0-B0) arrangement is the one the substitution check confirms"
    )
    assert worst < 1e-9
    assert worst_grid < 1e-9
    assert worst_tempting > 1e-3  # the rejected grouping is persistently wrong


def test_criterion_04_substitution_verification():
    config = builtin_scenario()
    worst_r = 0.0
    worst_t = 0.0
    for wave in _grid_waves():
        problem_r = IllusionProblem(config.actual, config.target, wave, Mode.REFLECTIVE)
        g_i = problem_r.gamma_i
        rho_4m = synthesize(problem_r)[0]
        worst_r = max(worst_r, abs(sheet_terminated_reflection(problem_r, rho_4m) - g_i))
        problem_t = IllusionProblem(config.actual, config.target, wave, Mode.TRANSMISSIVE)
        rho_1m = synthesize(problem_t)[0]
        worst_t = max(worst_t, abs(front_sheet_reflection(problem_t, rho_1m) - g_i))
    print(
        f"criterion 04: substitution max |Gamma(sheet) - Gamma_i| = {worst_r:.3e} reflective, "
        f"{worst_t:.3e} transmissive, over the full grid"
    )
    assert worst_r < 1e-9
    assert worst_t < 1e-9


def test_criterion_05_self_illusion_identities():
    config = builtin_scenario()
    worst_r = 0.0
    worst_t = 0.0
    for wave in _grid_waves():
        problem_r = IllusionProblem(config.actual, config.actual, wave, Mode.REFLECTIVE)
        # the actual termination is a conducting wall: rho_4 = -1
        worst_r = max(worst_r, abs(synthesize(problem_r)[0] - (-1.0)))
        problem_t = IllusionProblem(config.actual, config.actual, wave, Mode.TRANSMISSIVE)
        rho_1m = synthesize(problem_t)[0]
        # the actual first interface is air onto air: rho_1 = 0
        worst_t = max(worst_t, abs(rho_1m))
    print(
        f"criterion 05: self-illusion max |rho_4m - rho_4| = {worst_r:.3e}, "
        f"max |rho_1m - rho_1| = {worst_t:.3e}, over the full grid"
    )
    assert worst_r < 1e-12
    assert worst_t < 1e-12


def test_criterion_06_susceptibility_round_trip():
    config = builtin_scenario()
    worst = 0.0
    for wave in _grid_waves():
        problem = IllusionProblem(config.actual, config.target, wave, Mode.TRANSMISSIVE)
        rho_1m, chi_e, _ = synthesize(problem)
        _, rho_back = sheet_coefficients(
            Susceptibilities(chi_e, 0j), wave.k0, math.cos(wave.theta1)
        )
        worst = max(worst, abs(rho_back - rho_1m))
    print(f"criterion 06: max |rho(chi_e) - rho_1m| = {worst:.3e} over the full grid")
    assert worst < 1e-9


def test_criterion_07_reflection_dips_and_positive_resistance():
    config = builtin_scenario()
    thetas = config.theta_deg.values()
    amp_act = []
    amp_tgt = []
    for theta_deg in thetas:
        wave = PlaneWave(11e9, math.radians(theta_deg))
        amp_act.append(abs(chain_reflection(config.actual, wave)))
        amp_tgt.append(abs(chain_reflection(config.target, wave)))

    def interior_minima(values):
        return sum(
            1
            for i in range(1, len(values) - 1)
            if values[i] < values[i - 1] and values[i] < values[i + 1]
        )

    dips_act = interior_minima(amp_act)
    dips_tgt = interior_minima(amp_tgt)
    _, eta_n, passive = synthesize(
        IllusionProblem(config.actual, config.target, PlaneWave(11e9, 0.0), Mode.REFLECTIVE)
    )
    resistance = (eta_n * ETA0).real
    print(
        f"criterion 07: at 11 GHz the actual curve dips {dips_act}x, the target curve {dips_tgt}x; "
        f"Re(eta_m) at normal incidence = {resistance:.3f} ohm"
    )
    assert dips_act >= 1
    assert dips_tgt >= 1
    assert resistance > 0.0
    assert passive is True


def test_criterion_08_unit_cell_anchor():
    record = select_state(load_sample_map(), 4.5, 0.5 * complex(math.cos(math.radians(64.0)), math.sin(math.radians(64.0))))
    print(
        f"criterion 08: select_state(4.5 GHz, 0.5*e^(j64deg)) = (R = {record.r_ohm} ohm, C = {record.c_pf} pF)"
    )
    assert (record.r_ohm, record.c_pf) == (27.0, 0.35)


def test_criterion_09_companion_closed_forms():
    transform = RadialTransform(r1=0.05, r2=0.30, q=3.0)
    breakpoint_ = transform.r1 * transform.q
    continuity = abs(
        (transform.a * breakpoint_ + transform.b) - breakpoint_ / transform.q
    )
    fixed_point = abs(radial_forward(transform, transform.r2) - transform.r2)
    round_trip = max(
        abs(radial_inverse(transform, radial_forward(transform, transform.r2 * i / 100.0)) - transform.r2 * i / 100.0)
        for i in range(101)
    )
    grating_error = abs(math.degrees(grating_angle(1, 0.03, 0.06)) - 30.0)
    profile = StripProfile(amplitude=0.8, period=0.012)
    extremum_error = abs(pb_phase(profile, 0.0) - 2.0 * math.atan(profile.amplitude))
    print(
        f"criterion 09: radial continuity {continuity:.3e}, fixed point {fixed_point:.3e}, "
        f"round trip {round_trip:.3e}; grating error {grating_error:.3e} deg; "
        f"phase extremum error {extremum_error:.3e}"
    )
    assert continuity < 1e-12
    assert fixed_point < 1e-12
    assert round_trip < 1e-12
    assert grating_error < 1e-9
    assert extremum_error < 1e-12


def test_criterion_10_byte_deterministic_cli(tmp_path):
    out_a = tmp_path / "run_a.csv"
    out_b = tmp_path / "run_b.csv"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "planemirage", "synthesize", "--scenario", "builtin", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    bytes_a = out_a.read_bytes()
    bytes_b = out_b.read_bytes()
    print(
        f"criterion 10: two synthesize runs wrote {len(bytes_a)} bytes each; "
        f"identical = {bytes_a == bytes_b}"
    )
    assert bytes_a == bytes_b
    assert len(bytes_a.splitlines()) == 1 + 161 * 21
    # the in-process entry point produces the same bytes as the subprocess
    out_c = tmp_path / "run_c.csv"
    assert main(["synthesize", "--scenario", "builtin", "--out", str(out_c)]) == 0
    assert out_c.read_bytes() == bytes_a
