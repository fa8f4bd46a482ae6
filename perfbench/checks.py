"""Output checks that share no code with the package.

Every row of every table is recomputed with a Rouard recursion written here,
Gamma_n = (rho_n + Z_n^2 Gamma_{n+1}) / (1 + rho_n Z_n^2 Gamma_{n+1}), and a
seeded sample of rows is solved again by `tests/oracles.py`'s numpy
field-matching solve. The package is used only to build the oracle's input
types (Stack, Layer, Medium, PlaneWave); no propagation code is shared.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
import xml.etree.ElementTree as ET

from workloads import Command, axis_values

C0 = 299792458.0
RTOL = 1e-9         # Gamma columns and chi_e, relative
# Substituting the synthesized sheet back must reproduce the target Gamma to
# 1e-9 absolute, the tolerance of acceptance criterion 04: near a zero of
# the target Gamma the sheet is ill-conditioned and a relative test is not.
SUBST_ATOL = 1e-9
ETA_RTOL = 1e-12    # eta_n = (1 + rho)/(1 - rho), recomputed from printed digits
PASSIVE_SLACK = 1e-12
ORACLE_SAMPLES = 24

SIM_HEADER = "freq_ghz,theta_deg,g_act_re,g_act_im,g_tgt_re,g_tgt_im,err"
SYN_HEADERS = {
    "synthesize-reflective": "freq_ghz,theta_deg,g_act_re,g_act_im,g_tgt_re,g_tgt_im,"
    "rho_req_re,rho_req_im,eta_n_re,eta_n_im,passive,err",
    "synthesize-transmissive": "freq_ghz,theta_deg,g_act_re,g_act_im,g_tgt_re,g_tgt_im,"
    "rho_req_re,rho_req_im,chi_e_re,chi_e_im,passive,err",
}


def _complex(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def _rel(got: complex, want: complex) -> float:
    return abs(got - want) / max(abs(want), 1e-12)


class Rouard:
    """Total reflection of one stack (a config dict) by the layer recursion."""

    def __init__(self, stack: dict):
        inc = stack.get("incident", {"eps": 1.0})
        self.incident = (_complex(inc["eps"]), _complex(inc.get("mu", 1.0)))
        self.layers = [
            (_complex(l["eps"]), _complex(l.get("mu", 1.0)), l["thickness_mm"] * 1e-3)
            for l in stack["layers"]
        ]
        term = stack["termination"]
        self.pec = term["kind"] == "pec"
        self.half = (_complex(term.get("eps", 1.0)), _complex(term.get("mu", 1.0)))

    def reflection(self, f_ghz: float, theta_deg: float, front_rho=None, term_rho=None) -> complex:
        """Gamma at the front face; front_rho replaces the first interface's
        reflection, term_rho the termination's."""
        k0 = 2.0 * math.pi * f_ghz * 1e9 / C0
        eps0, mu0 = self.incident
        s2 = eps0 * mu0 * math.sin(math.radians(theta_deg)) ** 2

        def q(eps, mu):
            v = cmath.sqrt(eps * mu - s2)
            if v.imag > 0.0:
                v = -v
            return v, v / eps  # kz/k0 and the TM impedance up to a common factor

        _, q_prev = q(eps0, mu0)
        steps = []
        for eps, mu, d in self.layers:
            v, qn = q(eps, mu)
            steps.append(((qn - q_prev) / (qn + q_prev), cmath.exp(-2j * k0 * v * d)))
            q_prev = qn
        if term_rho is not None:
            g = term_rho
        elif self.pec:
            g = -1.0 + 0j
        else:
            _, qh = q(*self.half)
            g = (qh - q_prev) / (qh + q_prev)
        for i in range(len(steps) - 1, -1, -1):
            rho, z2 = steps[i]
            if i == 0 and front_rho is not None:
                rho = front_rho
            zg = z2 * g
            g = (rho + zg) / (1.0 + rho * zg)
        return g


def _oracle_stack(stack: dict, term_rho=None):
    from planemirage.wavecore import AIR, Layer, Medium, Open, Pec, Sheet, Stack

    def medium(obj):
        return Medium(_complex(obj["eps"]), _complex(obj.get("mu", 1.0)))

    term = stack["termination"]
    if term_rho is not None:
        termination = Sheet(term_rho)
    elif term["kind"] == "pec":
        termination = Pec()
    else:
        termination = Open(medium(term) if "eps" in term else AIR)
    incident = medium(stack["incident"]) if "incident" in stack else AIR
    layers = tuple(Layer(medium(l), l["thickness_mm"] * 1e-3) for l in stack["layers"])
    return Stack(incident, layers, termination)


def _oracle(stack: dict, f_ghz: float, theta_deg: float, term_rho=None) -> complex:
    from oracles import linear_system_reflection
    from planemirage.wavecore import PlaneWave

    wave = PlaneWave(f_ghz * 1e9, math.radians(theta_deg))
    return linear_system_reflection(_oracle_stack(stack, term_rho), wave)


def _cell(row: list[str], i: int) -> complex:
    return complex(float(row[i]), float(row[i + 1]))


def check_table(cmd: Command, text: str, seed: int) -> tuple[list[str], Counter]:
    """Problems found in one CSV table, and its rows counted by err tag."""
    scen = cmd.scenario
    thetas = axis_values(scen["sweep"]["theta_deg"])
    freqs = axis_values(scen["sweep"]["freq_ghz"])
    lines = text.split("\n")
    problems: list[str] = []
    header = SIM_HEADER if cmd.name == "simulate" else SYN_HEADERS[cmd.name]
    if lines[0] != header:
        return [f"{cmd.name}: header {lines[0]!r}"], Counter()
    if lines[-1] != "":
        problems.append(f"{cmd.name}: no final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != len(thetas) * len(freqs):
        return problems + [f"{cmd.name}: {len(rows)} rows for a {len(freqs)}x{len(thetas)} grid"], Counter()

    actual, target = Rouard(scen["actual"]), Rouard(scen["target"])
    width = len(header.split(","))
    err_tags: Counter = Counter()
    checked = []
    for i, row in enumerate(rows):
        where = f"{cmd.name} row {i + 1}"
        if len(row) != width:
            problems.append(f"{where}: {len(row)} cells")
            continue
        f_ghz, theta = float(row[0]), float(row[1])
        if abs(f_ghz - freqs[i // len(thetas)]) > 1e-9 or abs(theta - thetas[i % len(thetas)]) > 1e-9:
            problems.append(f"{where}: (f, theta) = ({f_ghz}, {theta}) out of grid order")
            continue
        if row[-1]:
            err_tags[row[-1]] += 1
            continue
        g_act, g_tgt = _cell(row, 2), _cell(row, 4)
        want_tgt = target.reflection(f_ghz, theta)
        for name, got, want in (
            ("g_act", g_act, actual.reflection(f_ghz, theta)),
            ("g_tgt", g_tgt, want_tgt),
        ):
            if _rel(got, want) > RTOL:
                problems.append(f"{where}: {name} {got} vs recursion {want}")
            if abs(got) > 1.0 + PASSIVE_SLACK:
                problems.append(f"{where}: |{name}| = {abs(got)!r} > 1 on a passive stack")
        if cmd.synthesis:
            problems += _check_sheet(cmd.name, where, row, actual, want_tgt, f_ghz, theta)
        checked.append(i)

    rng = random.Random(f"{seed}/{cmd.name}/{len(rows)}")
    for i in sorted(rng.sample(checked, min(ORACLE_SAMPLES, len(checked)))):
        row = rows[i]
        f_ghz, theta = float(row[0]), float(row[1])
        where = f"{cmd.name} row {i + 1}"
        want_tgt = _oracle(scen["target"], f_ghz, theta)
        for name, col, stack in (("g_act", 2, scen["actual"]), ("g_tgt", 4, None)):
            want = want_tgt if stack is None else _oracle(stack, f_ghz, theta)
            if _rel(_cell(row, col), want) > RTOL:
                problems.append(f"{where}: {name} {_cell(row, col)} vs field matching {want}")
        if cmd.name == "synthesize-reflective":
            got = _oracle(scen["actual"], f_ghz, theta, term_rho=_cell(row, 6))
            if abs(got - want_tgt) > SUBST_ATOL:
                problems.append(f"{where}: Sheet(rho_req) gives {got}, target {want_tgt}")
    return problems, err_tags


def _check_sheet(kind, where, row, actual: Rouard, want_tgt, f_ghz, theta) -> list[str]:
    problems = []
    rho, aux = _cell(row, 6), _cell(row, 8)
    if row[10] != ("1" if abs(rho) <= 1.0 else "0"):
        problems.append(f"{where}: passive = {row[10]!r} with |rho| = {abs(rho)!r}")
    if kind == "synthesize-reflective":
        got = actual.reflection(f_ghz, theta, term_rho=rho)
        eta = (1.0 + rho) / (1.0 - rho)
        if _rel(aux, eta) > ETA_RTOL:
            problems.append(f"{where}: eta_n {aux} vs (1+rho)/(1-rho) = {eta}")
    else:
        got = actual.reflection(f_ghz, theta, front_rho=rho)
        kh = (2.0 * math.pi * f_ghz * 1e9 / C0) / (2.0 * math.cos(math.radians(theta)))
        jkx = 1j * kh * aux
        if _rel(jkx / (1.0 + jkx), rho) > RTOL:
            problems.append(f"{where}: chi_e {aux} reflects {jkx / (1.0 + jkx)}, not rho {rho}")
    if abs(got - want_tgt) > SUBST_ATOL:
        problems.append(f"{where}: substituted sheet gives {got}, target {want_tgt}")
    return problems


def check_svg(cmd: Command, text: str) -> list[str]:
    """The plot is well-formed XML with one polyline per series, group and panel."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"svg: {exc}"]
    sweep = cmd.scenario["sweep"]
    series = 2 if cmd.name == "simulate" else 3
    groups = len(axis_values(sweep["freq_ghz"]))
    points = len(axis_values(sweep["theta_deg"]))
    lines = [e for e in root.iter() if e.tag.endswith("polyline")]
    problems = []
    if len(lines) != 2 * series * groups:
        problems.append(f"svg: {len(lines)} polylines, expected {2 * series * groups}")
    for e in lines:
        if len(e.get("points", "").split()) != points:
            problems.append("svg: a polyline does not span the angle axis")
            break
    return problems
