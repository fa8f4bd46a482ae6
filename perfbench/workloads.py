"""Workload definitions: generated configs, command lists and grids.

Every input the program sees is written here from the workload name and the
seed, as a scenario config in the CLI's units (mm, GHz, degrees). The stacks
are kept as plain dicts so that the output checks can rebuild them without
the package's own parsing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# The bundled demonstration scenario of `planemirage.cli.builtin_scenario`,
# restated here so the checks do not take it from the code under test.
BUILTIN_ACTUAL = {
    "layers": [
        {"eps": 1.0, "thickness_mm": 120.0},
        {"eps": [3.9, -0.08], "thickness_mm": 60.0},
        {"eps": 1.0, "thickness_mm": 120.0},
    ],
    "termination": {"kind": "pec"},
}
BUILTIN_TARGET = {
    "layers": [
        {"eps": 1.0, "thickness_mm": 60.0},
        {"eps": [2.1, -0.0006], "thickness_mm": 120.0},
        {"eps": 1.0, "thickness_mm": 120.0},
    ],
    "termination": {"kind": "open"},
}
BUILTIN_SWEEP = {
    "theta_deg": {"start": 0.0, "stop": 80.0, "step": 0.5},
    "freq_ghz": {"start": 10.0, "stop": 12.0, "step": 0.1},
}

# 321 x 33 = 10,593 points, three times the builtin grid: the interpreter's
# start-up is 6-12 % of each command, so per-point work dominates, and two
# rounds still fit in one run on a machine 25 % slower than the reference.
DENSE_SWEEP = {
    "theta_deg": {"start": 0.0, "stop": 80.0, "step": 0.25},
    "freq_ghz": {"start": 10.0, "stop": 12.0, "step": 0.0625},
}

# Deep lossy walls. Layer counts are fixed so that the work per point does
# not depend on the seed; only the materials and thicknesses do. Every layer
# has eps' >= 1.5 > sin^2(80 deg), so no layer is evanescent, and the total
# one-way attenuation stays below about 3 nepers, far from the regime where
# `wavecore.segment_matrix` divides by an underflowed phase factor.
DEEP_ACTUAL_LAYERS = 40
DEEP_TARGET_LAYERS = 48
DEEP_SWEEP = {
    "theta_deg": {"start": 0.0, "stop": 80.0, "step": 4.0},
    "freq_ghz": {"start": 1.0, "stop": 5.0, "step": 0.1},
}

# Grids for --fast (self-test only): a handful of points on the same stacks.
FAST_SWEEP = {
    "theta_deg": {"start": 0.0, "stop": 60.0, "step": 30.0},
    "freq_ghz": {"start": 10.0, "stop": 10.5, "step": 0.5},
}
FAST_DEEP_SWEEP = {
    "theta_deg": {"start": 0.0, "stop": 60.0, "step": 30.0},
    "freq_ghz": {"start": 2.0, "stop": 2.5, "step": 0.5},
}


def axis_values(axis: dict) -> list[float]:
    """Grid values of one sweep axis; the generated axes are exact multiples."""
    n = round((axis["stop"] - axis["start"]) / axis["step"]) + 1
    return [axis["start"] + i * axis["step"] for i in range(n)]


def grid_size(sweep: dict) -> int:
    return len(axis_values(sweep["theta_deg"])) * len(axis_values(sweep["freq_ghz"]))


def thin(sweep: dict, theta_every: int, freq_every: int) -> dict:
    """The same grid with every n-th value of each axis kept."""
    out = {}
    for key, every in (("theta_deg", theta_every), ("freq_ghz", freq_every)):
        axis = dict(sweep[key])
        axis["step"] = axis["step"] * every
        n = (len(axis_values(sweep[key])) - 1) // every
        axis["stop"] = axis["start"] + n * axis["step"]
        out[key] = axis
    return out


@dataclass(frozen=True)
class Command:
    """One CLI invocation: what it computes and on which scenario."""

    name: str        # simulate | synthesize-reflective | synthesize-transmissive
    config: dict | None  # generated scenario, or None for --scenario builtin
    output: str      # csv | svg

    @property
    def synthesis(self) -> bool:
        return self.name != "simulate"

    @property
    def scenario(self) -> dict:
        if self.config is not None:
            return self.config
        return {"actual": BUILTIN_ACTUAL, "target": BUILTIN_TARGET, "sweep": BUILTIN_SWEEP}

    @property
    def points(self) -> int:
        return grid_size(self.scenario["sweep"])

    def argv(self, config_path: Path | None, out: Path) -> list[str]:
        verb = "simulate" if self.name == "simulate" else "synthesize"
        args = [verb]
        if self.config is None:
            args += ["--scenario", "builtin"]
        else:
            args += ["--config", str(config_path)]
        if self.name == "synthesize-reflective":
            args += ["--mode", "reflective"]
        elif self.name == "synthesize-transmissive":
            args += ["--mode", "transmissive"]
        return args + ["--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]      # run as subprocesses, timed as cli_wall_s
    setup: dict | None                 # scenario parsed by the set-up probe; None = builtin
    trace_commands: tuple[Command, ...]  # in-process commands of the traced pass
    # Order of the in-process commands in one round, by name. Short
    # commands are repeated so that each metric gets seconds of samples
    # spread over the whole run.
    in_process: tuple[str, ...] = ("simulate", "synthesize-reflective", "synthesize-transmissive")


def _scenario(actual: dict, target: dict, sweep: dict, output: str = "csv") -> dict:
    return {"actual": actual, "target": target, "sweep": sweep, "output": {"format": output}}


def _builtin_cli(seed: int, fast: bool) -> Workload:
    sweep = FAST_SWEEP if fast else BUILTIN_SWEEP
    # --scenario builtin has a fixed grid, so fast mode runs a generated copy.
    cfg = _scenario(BUILTIN_ACTUAL, BUILTIN_TARGET, sweep) if fast else None
    svg = Command("simulate", _scenario(BUILTIN_ACTUAL, BUILTIN_TARGET, sweep, "svg"), "svg")
    trace_cfg = _scenario(BUILTIN_ACTUAL, BUILTIN_TARGET, sweep if fast else thin(sweep, 4, 1))
    return Workload(
        "builtin-cli",
        tuple(Command(n, cfg, "csv") for n in _NAMES) + (svg,),
        cfg,
        tuple(Command(n, trace_cfg, "csv") for n in _NAMES),
        in_process=("simulate", "synthesize-reflective", "simulate", "synthesize-transmissive") * 2,
    )


def _dense_grid(seed: int, fast: bool) -> Workload:
    sweep = FAST_SWEEP if fast else DENSE_SWEEP
    cfg = _scenario(BUILTIN_ACTUAL, BUILTIN_TARGET, sweep)
    trace_cfg = _scenario(BUILTIN_ACTUAL, BUILTIN_TARGET, sweep if fast else thin(sweep, 10, 2))
    return Workload(
        "dense-grid",
        tuple(Command(n, cfg, "csv") for n in _NAMES),
        cfg,
        tuple(Command(n, trace_cfg, "csv") for n in _NAMES),
        in_process=("simulate", "synthesize-reflective", "simulate", "synthesize-transmissive", "simulate"),
    )


def _lossy_layer(rng: random.Random) -> dict:
    eps_re = rng.uniform(1.5, 6.0)
    tan_delta = rng.uniform(0.0, 0.04)
    return {"eps": [eps_re, -eps_re * tan_delta], "thickness_mm": rng.uniform(2.0, 10.0)}


def _deep_wall(rng: random.Random, n_layers: int) -> dict:
    return {
        "layers": [_lossy_layer(rng) for _ in range(n_layers)],
        "termination": {"kind": "open", "eps": rng.uniform(1.0, 4.0)},
    }


def _deep_stack(seed: int, fast: bool) -> Workload:
    rng = random.Random(f"deep-stack/{seed}")
    deep_actual = _deep_wall(rng, DEEP_ACTUAL_LAYERS)
    deep_target = _deep_wall(rng, DEEP_TARGET_LAYERS)
    # synthesize accepts only 3-layer actual stacks: a gap, a lossy slab and
    # a gap in front of a conducting wall, disguised as the deep target.
    three = {
        "layers": [
            {"eps": 1.0, "thickness_mm": rng.uniform(20.0, 80.0)},
            _lossy_layer(rng) | {"thickness_mm": rng.uniform(20.0, 80.0)},
            {"eps": 1.0, "thickness_mm": rng.uniform(20.0, 80.0)},
        ],
        "termination": {"kind": "pec"},
    }
    sweep = FAST_DEEP_SWEEP if fast else DEEP_SWEEP
    sim = _scenario(deep_actual, deep_target, sweep)
    syn = _scenario(three, deep_target, sweep)
    trace_sweep = sweep if fast else thin(sweep, 2, 2)
    sim_t = _scenario(deep_actual, deep_target, trace_sweep)
    syn_t = _scenario(three, deep_target, trace_sweep)
    return Workload(
        "deep-stack",
        (
            Command("simulate", sim, "csv"),
            Command("synthesize-reflective", syn, "csv"),
            Command("synthesize-transmissive", syn, "csv"),
        ),
        sim,
        (
            Command("simulate", sim_t, "csv"),
            Command("synthesize-reflective", syn_t, "csv"),
            Command("synthesize-transmissive", syn_t, "csv"),
        ),
    )


_NAMES = ("simulate", "synthesize-reflective", "synthesize-transmissive")

WORKLOADS = {
    "builtin-cli": _builtin_cli,
    "dense-grid": _dense_grid,
    "deep-stack": _deep_stack,
}


def make(name: str, seed: int, fast: bool = False) -> Workload:
    return WORKLOADS[name](seed, fast)


def write_config(config: dict, path: Path) -> Path:
    path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    return path
