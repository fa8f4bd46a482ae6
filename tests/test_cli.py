"""CLI: config parsing, sweep tables, emission determinism, exit codes."""

import argparse
import cmath
import errno
import gc
import hashlib
import json
import math
import re
import tracemalloc
import warnings
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planemirage.cli import main
from planemirage.config import parse_scenario
from planemirage.output import _cells, emit
from planemirage.sweep import (
    MAX_AXIS_POINTS,
    MAX_LAYER_ANGLES,
    ScenarioConfig,
    SweepAxis,
    SweepRow,
    builtin_scenario,
    run_simulate,
    run_synthesize,
)
from planemirage.errors import (
    ConfigError,
    DegenerateInterfaceError,
    DegenerateSynthesisError,
    DomainError,
    EvanescentOrderError,
    PlanemirageError,
    ResonantSingularityError,
    ValidationError,
)
from planemirage import cli, errors, gstc, sweep, synthesis, wavecore
from planemirage.synthesis import IllusionProblem, Mode, synthesize
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
    walk_reflection,
)

from oracles import chain_matrix, round_trips, segment_triples

_SIM_HEADER = "freq_ghz,theta_deg,g_act_re,g_act_im,g_tgt_re,g_tgt_im,err"


def _small_axis():
    return SweepAxis(0.0, 1.0, 0.5)


def _write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _three_air_layers():
    return [
        {"eps": 1.0, "thickness_mm": 120.0},
        {"eps": [3.9, -0.08], "thickness_mm": 60.0},
        {"eps": 1.0, "thickness_mm": 120.0},
    ]


def _scenario_doc(**overrides):
    doc = {
        "actual": {"layers": _three_air_layers(), "termination": {"kind": "pec"}},
        "target": {
            "layers": [{"eps": [2.1, -0.0006], "thickness_mm": 120.0}],
            "termination": {"kind": "open"},
        },
        "mode": "reflective",
        "sweep": {
            "theta_deg": {"start": 0.0, "stop": 1.0, "step": 0.5},
            "freq_ghz": {"start": 10.0, "stop": 10.0, "step": 0.1},
        },
    }
    doc.update(overrides)
    return doc


def test_sweep_axis_values():
    assert len(SweepAxis(0.0, 80.0, 0.5).values()) == 161
    assert len(SweepAxis(10.0, 12.0, 0.1).values()) == 21
    assert SweepAxis(5.0, 5.0, 1.0).values() == [5.0]
    with pytest.raises(ConfigError):
        SweepAxis(0.0, 80.0, 0.0)
    with pytest.raises(ConfigError):
        SweepAxis(0.0, 80.0, -1.0)
    with pytest.raises(ConfigError):
        SweepAxis(10.0, 5.0, 1.0)
    with pytest.raises(ConfigError, match="point count"):
        SweepAxis(-1e308, 1e308, 1.0)  # stop - start overflows
    # a finite point count is refused past MAX_AXIS_POINTS, before any value is made
    assert SweepAxis(0.0, MAX_AXIS_POINTS - 1, 1.0).count == MAX_AXIS_POINTS
    with pytest.raises(ConfigError, match="more than 1,000,000 points"):
        SweepAxis(0.0, MAX_AXIS_POINTS, 1.0)
    with pytest.raises(ConfigError, match="more than 1,000,000 points"):
        SweepAxis(0.0, 80.0, 1e-300)


def test_a_sweep_holds_at_most_max_layer_angles():
    # angles times the layers of both stacks: what a sweep holds before its
    # first row; refused on the ScenarioConfig, before any value is made
    config = builtin_scenario()
    actual = Stack(AIR, config.actual.layers[:2], Pec())
    target = Stack(AIR, config.target.layers[:2], Open())
    assert MAX_LAYER_ANGLES % 4 == 0

    def theta_axis(count):
        axis = SweepAxis(0.0, 80.0, 80.0 / (count - 1))
        assert axis.count == count
        return axis

    most = MAX_LAYER_ANGLES // 4
    ScenarioConfig(actual, target, Mode.REFLECTIVE, theta_axis(most), config.freq_ghz)
    with pytest.raises(ConfigError, match=r"^sweep\.theta_deg: 100,001 angles times 2 \+ 2 stack layers"):
        ScenarioConfig(actual, target, Mode.REFLECTIVE, theta_axis(most + 1), config.freq_ghz)
    # a deep stack lowers the number of angles
    deep = Stack(AIR, config.actual.layers * 16, Pec())
    assert MAX_LAYER_ANGLES % 51 != 0
    ScenarioConfig(deep, config.target, None, theta_axis(MAX_LAYER_ANGLES // 51), config.freq_ghz)
    with pytest.raises(ConfigError, match="walk layers a sweep may hold"):
        ScenarioConfig(deep, config.target, None, theta_axis(MAX_LAYER_ANGLES // 51 + 1), config.freq_ghz)


def test_builtin_scenario_shape():
    config = builtin_scenario()
    assert len(config.actual.layers) == 3
    assert config.actual.layers[1].medium.eps_r == 3.9 - 0.08j
    assert isinstance(config.actual.termination, Pec)
    assert config.target.layers[1].medium.eps_r == 2.1 - 0.0006j
    assert isinstance(config.target.termination, Open)
    assert config.mode is Mode.REFLECTIVE
    assert len(config.theta_deg.values()) == 161
    assert len(config.freq_ghz.values()) == 21


def test_scenario_config_validation():
    config = builtin_scenario()
    with pytest.raises(ConfigError):
        ScenarioConfig(config.actual, config.target, None, SweepAxis(0.0, 85.0, 0.5), config.freq_ghz)
    with pytest.raises(ConfigError):
        ScenarioConfig(config.actual, config.target, None, SweepAxis(-1.0, 10.0, 0.5), config.freq_ghz)
    with pytest.raises(ConfigError):
        ScenarioConfig(config.actual, config.target, None, config.theta_deg, SweepAxis(0.0, 1.0, 0.5))
    with pytest.raises(ConfigError, match="freq_ghz"):  # 1e300 GHz is not finite in Hz
        ScenarioConfig(config.actual, config.target, None, config.theta_deg, SweepAxis(10.0, 1e300, 1e299))
    with pytest.raises(ConfigError, match="freq_ghz"):  # 1e299 GHz is 1e308 Hz, but 2*pi*f is not
        ScenarioConfig(config.actual, config.target, None, config.theta_deg, SweepAxis(1e299, 1e299, 1.0))
    # at 2.8e298 GHz, 2*pi*f in Hz is still a float
    ScenarioConfig(config.actual, config.target, None, config.theta_deg, SweepAxis(2.8e298, 2.8e298, 1.0))
    with pytest.raises(ConfigError):
        ScenarioConfig(
            config.actual, config.target, None, config.theta_deg, config.freq_ghz, output_format="pdf"
        )


def test_a_scenario_config_refuses_a_mode_that_is_not_a_mode():
    # sheet_plan reads every mode but Mode.REFLECTIVE as transmissive, so a
    # mode of "reflective" would synthesize the transmissive row
    config = builtin_scenario()
    with pytest.raises(ConfigError, match="^mode must be a Mode or None, got 'reflective'$"):
        ScenarioConfig(config.actual, config.target, "reflective", config.theta_deg, config.freq_ghz)


@pytest.mark.parametrize("command", [["simulate"], ["synthesize"]])
def test_a_frequency_past_the_float_range_stops_the_run_before_any_point(
    monkeypatch, tmp_path, capsys, command
):
    def angle_walk(stack, theta1):
        raise AssertionError("a grid point was reached")

    monkeypatch.setattr(sweep, "angle_walk", angle_walk)
    doc = _scenario_doc()
    doc["sweep"]["freq_ghz"] = {"start": 10.0, "stop": 1e300, "step": 1e299}
    out = tmp_path / "sweep.csv"
    argv = command + ["--config", str(_write_config(tmp_path, doc)), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("planemirage: config error: ") and "freq_ghz" in err
    assert not out.exists()


# A step so small that the point count is not finite, and a one-point grid
# whose 2*pi*f in Hz overflows though f in Hz does not.
_UNRUNNABLE_GRIDS = {
    "theta-count": ("theta_deg", {"start": 0.0, "stop": 80.0, "step": 1e-320}, "point count"),
    "freq-k0": ("freq_ghz", {"start": 1.7e299, "stop": 1.7e299, "step": 0.1}, "freq_ghz"),
}


@pytest.mark.parametrize("grid", list(_UNRUNNABLE_GRIDS))
@pytest.mark.parametrize("command", ["simulate", "synthesize"])
def test_a_grid_that_cannot_run_is_a_config_error_before_any_point(
    monkeypatch, tmp_path, capsys, command, grid
):
    def angle_walk(stack, theta1):
        raise AssertionError("a grid point was reached")

    monkeypatch.setattr(sweep, "angle_walk", angle_walk)
    axis, spec, named = _UNRUNNABLE_GRIDS[grid]
    doc = _scenario_doc()
    doc["sweep"][axis] = spec
    out = tmp_path / "sweep.csv"
    argv = [command, "--config", str(_write_config(tmp_path, doc)), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("planemirage: config error: ") and named in err
    assert not out.exists()


_ASTRONOMICAL_AXIS = {"start": 0, "stop": 80, "step": 1e-300}

# A value that a constructor refuses, set at a path in the config, and the
# JSON path its config error names.
_REFUSED_VALUES = {
    "nan-thickness": (("actual", "layers", 0, "thickness_mm"), math.nan, "actual.layers[0]"),
    "infinite-sheet-rho": (
        ("actual", "termination"),
        {"kind": "sheet", "rho": [math.inf, 0.0]},
        "actual.termination",
    ),
    "theta-zero-step": (("sweep", "theta_deg", "step"), 0.0, "sweep.theta_deg"),
    "theta-start-past-stop": (("sweep", "theta_deg", "start"), 2.0, "sweep.theta_deg"),
    "freq-zero-step": (("sweep", "freq_ghz", "step"), 0.0, "sweep.freq_ghz"),
    "freq-start-past-stop": (("sweep", "freq_ghz", "start"), 11.0, "sweep.freq_ghz"),
    # 8e301 points: a finite count, but more than MAX_AXIS_POINTS
    "theta-astronomical-count": (("sweep", "theta_deg"), _ASTRONOMICAL_AXIS, "sweep.theta_deg"),
    "freq-astronomical-count": (("sweep", "freq_ghz"), _ASTRONOMICAL_AXIS, "sweep.freq_ghz"),
    # 800,001 angles, under MAX_AXIS_POINTS, times 4 layers: past MAX_LAYER_ANGLES
    "theta-too-many-walk-layers": (
        ("sweep", "theta_deg"),
        {"start": 0, "stop": 80, "step": 1e-4},
        "sweep.theta_deg",
    ),
    # integers that JSON reads but float() and complex() cannot hold
    "thickness-400-digits": (
        ("actual", "layers", 0, "thickness_mm"),
        10**400,
        "actual.layers[0].thickness_mm",
    ),
    "eps-400-digits": (("actual", "layers", 1, "eps"), [10**400, -1], "actual.layers[1].eps"),
    "rho-400-digits": (
        ("target", "termination"),
        {"kind": "sheet", "rho": -(10**400)},
        "target.termination.rho",
    ),
    # values of the wrong kind, and an axis bound that JSON reads as inf
    "thickness-a-string": (("actual", "layers", 0, "thickness_mm"), "120", "actual.layers[0].thickness_mm"),
    "no-layers": (("actual", "layers"), [], "actual.layers"),
    "output-path-a-number": (("output",), {"path": 5}, "output.path"),
    "freq-stop-infinite": (("sweep", "freq_ghz", "stop"), math.inf, "sweep.freq_ghz"),
}


@pytest.mark.parametrize("case", list(_REFUSED_VALUES))
def test_a_refused_config_value_is_a_config_error_that_names_its_path(
    monkeypatch, tmp_path, capsys, case
):
    def angle_walk(stack, theta1):
        raise AssertionError("a grid point was reached")

    monkeypatch.setattr(sweep, "angle_walk", angle_walk)
    path, value, named = _REFUSED_VALUES[case]
    doc = _scenario_doc()
    _put(doc, path, value)
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(_write_config(tmp_path, doc)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"planemirage: config error: {named}: "), err
    assert not out.exists()


@pytest.mark.parametrize("value", ["9" * 5000, "[" * 100_000], ids=["5000-digits", "nested-100000-deep"])
def test_a_config_that_json_cannot_read_is_a_config_error(tmp_path, capsys, value):
    # json refuses an integer of more than 4,300 digits with a plain
    # ValueError, and arrays nested past the recursion limit with RecursionError
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(_scenario_doc()).replace("120.0", value, 1))
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"planemirage: config error: cannot parse config {config}: "), err
    assert not out.exists()
    # the config's own content, not advice to call sys.set_int_max_str_digits()
    assert "set_int_max_str_digits" not in err
    if value.isdigit():
        assert err.endswith(": an integer of more than 4,300 digits\n"), err


def _main_exit(capsys, argv):
    """main(argv)'s exit code, stdout and stderr, where argparse exits by SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_one_process_builds_one_parser_for_every_main_call(monkeypatch, tmp_path):
    cli._parser.cache_clear()
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", "builtin", "--out", str(a)]) == 0
    first = list(built)
    assert first.count("planemirage") == 1  # one top-level parser; the rest are its subcommands
    assert main(["simulate", "--scenario", "builtin", "--out", str(b)]) == 0
    assert built == first
    assert a.read_bytes() == b.read_bytes()


def test_a_kept_parser_reports_usage_errors_and_help_as_a_new_one(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    bad = ["simulate", "--scenario", "other"]
    fresh_error = _main_exit(capsys, bad)
    assert fresh_error[0] == 2 and "invalid choice: 'other'" in fresh_error[2]
    assert main(["simulate", "--scenario", "builtin", "--out", str(tmp_path / "a.csv")]) == 0
    assert _main_exit(capsys, bad) == fresh_error
    for argv in (["--help"], ["synthesize", "--help"], ["companion", "--help"]):
        cli._parser.cache_clear()
        first = _main_exit(capsys, argv)
        assert first[0] == 0 and first[1].startswith("usage: planemirage") and first[2] == ""
        assert _main_exit(capsys, argv) == first


def test_parse_scenario_round_trip(tmp_path):
    doc = _scenario_doc(output={"format": "csv", "path": "result.csv"})
    doc["actual"]["incident"] = {"eps": 1.0}
    doc["actual"]["termination"] = {"kind": "sheet", "rho": [0.3, -0.2]}
    doc["target"]["termination"] = {"kind": "open", "eps": [2.1, -0.0006]}
    config = parse_scenario(_write_config(tmp_path, doc))
    assert config.mode is Mode.REFLECTIVE
    assert config.actual.layers[0].thickness == pytest.approx(0.120)
    assert config.actual.layers[1].medium.eps_r == 3.9 - 0.08j
    assert config.actual.termination == Sheet(0.3 - 0.2j)
    assert config.target.termination.half_space.eps_r == 2.1 - 0.0006j
    assert config.output_path == "result.csv"
    assert len(config.theta_deg.values()) == 3


def test_open_termination_honours_mu(tmp_path):
    doc = _scenario_doc()
    doc["target"]["termination"] = {"kind": "open", "mu": 4.0}
    config = parse_scenario(_write_config(tmp_path, doc))
    assert config.target.termination.half_space == Medium(1.0, 4.0)


def test_parse_scenario_rejections(tmp_path):
    cases = [
        _scenario_doc(mode="sideways"),
        _scenario_doc(extra_key=1),
        _scenario_doc(sweep={"theta_deg": {"start": 0, "stop": 1, "step": 0.5}}),
    ]
    missing_target = _scenario_doc()
    del missing_target["target"]
    cases.append(missing_target)
    bad_layer = _scenario_doc()
    bad_layer["actual"]["layers"][0]["thickness_mm"] = -5.0
    cases.append(bad_layer)
    bad_eps = _scenario_doc()
    bad_eps["actual"]["layers"][0]["eps"] = "thick"
    cases.append(bad_eps)
    bad_term = _scenario_doc()
    bad_term["actual"]["termination"] = {"kind": "mirror"}
    cases.append(bad_term)
    sheet_no_rho = _scenario_doc()
    sheet_no_rho["actual"]["termination"] = {"kind": "sheet"}
    cases.append(sheet_no_rho)
    for i, doc in enumerate(cases):
        path = _write_config(tmp_path, doc, name=f"bad{i}.json")
        with pytest.raises(ConfigError):
            parse_scenario(path)


def _put(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "path",
    [
        ("actual", "incident"),
        ("actual", "layers", 1),
        ("target", "termination"),
        ("sweep", "freq_ghz"),
        ("sweep",),
        ("output",),
        ("target",),
    ],
    ids=lambda path: ".".join(map(str, path)),
)
@pytest.mark.parametrize("value", ["pec", [1.0, 2.0]])
def test_non_object_config_values_are_config_errors(tmp_path, capsys, path, value):
    doc = _scenario_doc()
    _put(doc, path, value)
    config_path = _write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="expected an object"):
        parse_scenario(config_path)
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 1
    assert "config error" in capsys.readouterr().err


def test_parse_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_scenario(path)
    with pytest.raises(ConfigError):
        parse_scenario(tmp_path / "absent.json")


def test_error_tags():
    # each class's tag is its name without the Error suffix, a hyphen put
    # before every capital but the first, in lower case
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, PlanemirageError)]
    assert PlanemirageError in classes and EvanescentOrderError in classes
    for cls in classes:
        name = cls.__name__
        if name.endswith("Error"):
            name = name[:-5]
        assert cls.tag == re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()
    assert DegenerateSynthesisError.tag == "degenerate-synthesis"
    assert ResonantSingularityError.tag == "resonant-singularity"
    assert EvanescentOrderError.tag == "evanescent-order"


def test_run_simulate_grid_order():
    stack = Stack(AIR, (Layer(AIR, 0.05),), Pec())
    config = ScenarioConfig(stack, stack, None, _small_axis(), SweepAxis(10.0, 10.1, 0.1))
    rows = run_simulate(config)
    assert len(rows) == 6  # 2 freqs x 3 thetas, frequency-major
    assert [(r.freq_ghz, r.theta_deg) for r in rows[:3]] == [(10.0, 0.0), (10.0, 0.5), (10.0, 1.0)]
    assert rows[3].freq_ghz == 10.1
    for r in rows:
        assert r.err == ""
        assert abs(abs(r.g_act) - 1.0) < 1e-12  # lossless wall
        assert r.rho_req is None


@pytest.mark.parametrize("mode", [Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_run_synthesize_matches_direct_calls(mode):
    config = builtin_scenario()
    small = ScenarioConfig(config.actual, config.target, mode, _small_axis(), SweepAxis(10.0, 10.1, 0.1))
    rows = run_synthesize(small)
    assert len(rows) == 6
    for r in rows:
        wave = PlaneWave(r.freq_ghz * 1e9, math.radians(r.theta_deg))
        assert r.g_act == chain_reflection(config.actual, wave)
        assert r.g_tgt == chain_reflection(config.target, wave)
        rho, aux, _ = synthesize(IllusionProblem(config.actual, config.target, wave, mode))
        assert r.rho_req == rho
        assert r.aux == aux
        assert r.passive is True
        assert r.err == ""


def _deep_stack(n_layers):
    layers = tuple(
        Layer(Medium(2.0 + 0.5 * (i % 4) - 0.02j), 0.004 + 0.001 * (i % 3)) for i in range(n_layers)
    )
    return Stack(AIR, layers, Open(Medium(3.0)))


def _media(stack):
    """The media a walk of stack meets: incident, each layer's, and an Open half-space."""
    yield stack.incident_medium
    yield from (layer.medium for layer in stack.layers)
    if isinstance(stack.termination, Open):
        yield stack.termination.half_space


def _counted(calls, key, real):
    """real, recording each call's arguments in calls[key]; keyword
    arguments, where given, as one dict after the positional ones."""

    def fn(*args, **kwargs):
        calls[key].append(args + (kwargs,) if kwargs else args)
        return real(*args, **kwargs)

    return fn


@pytest.mark.parametrize("stacks", ["builtin", "deep", "sheet"])
@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_sweeps_walk_each_stack_once_per_angle(monkeypatch, stacks, mode):
    # one walk per stack at each angle, and not again at each frequency: a
    # walk refracts once into each layer and once into the half-space behind
    # an Open termination, none for Pec or Sheet, and takes the incident
    # wave once; each medium's (s, eta) is formed once, whatever the number
    # of angles
    actual, target = (_deep_stack(9), _deep_stack(12))
    if stacks == "builtin":
        actual, target = builtin_scenario().actual, builtin_scenario().target
    elif stacks == "sheet":
        actual = Stack(AIR, actual.layers, Sheet(0.5 - 0.2j))
    config = ScenarioConfig(actual, target, mode, _small_axis(), SweepAxis(10.0, 10.1, 0.1))
    calls = {"walk": [], "state": [], "incident": [], "constants": []}
    # every distinct medium of both stacks, its cached constants dropped
    media = {id(m): m for s in (actual, target) for m in _media(s)}
    for m in media.values():
        vars(m).pop("wave_constants", None)
    constants = Medium.__dict__["wave_constants"]
    monkeypatch.setattr(constants, "func", _counted(calls, "constants", constants.func))
    for key, name in (("state", "layer_wave_state"), ("incident", "_incident")):
        monkeypatch.setattr(wavecore, name, _counted(calls, key, getattr(wavecore, name)))
    monkeypatch.setattr(sweep, "angle_walk", _counted(calls, "walk", angle_walk))
    rows = run_simulate(config) if mode is None else run_synthesize(config)
    assert [r.err for r in rows] == [""] * 6
    angles = config.theta_deg.values()
    assert len(angles) == 3
    assert calls["walk"] == [(s, math.radians(t)) for t in angles for s in (actual, target)]
    per_angle = sum(len(s.layers) + isinstance(s.termination, Open) for s in (actual, target))
    assert len(calls["state"]) == len(angles) * per_angle
    assert len(calls["incident"]) == len(angles) * 2
    assert sorted(id(m) for (m,) in calls["constants"]) == sorted(media)


@pytest.mark.parametrize("mode", [Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_synthesis_sweep_describes_each_sheet_once_per_point(monkeypatch, mode):
    # the impedance kernel serves both the reflective eta_n and the passivity
    # verdict; a sweep point has proved rho, k0 and cos_theta, so it calls the
    # gstc kernels and never the public functions that check them again
    config = builtin_scenario()
    config = ScenarioConfig(config.actual, config.target, mode, _small_axis(), SweepAxis(10.0, 10.1, 0.1))
    calls = {"impedance": [], "susceptibility": [], "public": []}
    monkeypatch.setattr(synthesis, "_impedance", _counted(calls, "impedance", gstc._impedance))
    monkeypatch.setattr(synthesis, "_susceptibility", _counted(calls, "susceptibility", gstc._susceptibility))
    for name in ("impedance_from_reflection", "susceptibility_from_reflection"):
        for module in (gstc, sweep, synthesis):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _counted(calls, "public", getattr(gstc, name)))
    rows = run_synthesize(config)
    assert [r.err for r in rows] == [""] * 6
    assert [rho for (rho,) in calls["impedance"]] == [r.rho_req for r in rows]
    if mode is Mode.TRANSMISSIVE:
        assert [(rho, k0) for rho, k0, _ in calls["susceptibility"]] == [
            (r.rho_req, PlaneWave(r.freq_ghz * 1e9).k0) for r in rows
        ]
    else:
        assert calls["susceptibility"] == []
    assert calls["public"] == []


@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_sweep_folds_each_walk_once_per_point(monkeypatch, mode):
    # in every mode a frequency makes two walk_reflections calls: the actual
    # batch, then the target batch, each in angle order, and a reflective
    # step folds nothing. A transmissive actual batch folds, into unclosed
    # pairs, the actual stack's layers 2..N from the one rest walk each
    # angle's plan holds; its step adds layer 1 itself. So each walk is
    # folded once per point, and an error-free point makes no one-walk fold
    # and runs nothing of the tagging rules
    config = builtin_scenario()
    config = ScenarioConfig(config.actual, config.target, mode, _small_axis(), SweepAxis(10.0, 10.1, 0.1))
    calls = {"walk": [], "batch": [], "one": [], "tagging": []}
    monkeypatch.setattr(sweep, "angle_walk", _counted(calls, "walk", angle_walk))
    monkeypatch.setattr(sweep, "walk_reflections", _counted(calls, "batch", wavecore.walk_reflections))
    for module in (wavecore, synthesis):
        monkeypatch.setattr(module, "walk_reflection", _counted(calls, "one", walk_reflection))
    for name in ("_tagged_row", "_entries"):
        monkeypatch.setattr(sweep, name, _counted(calls, "tagging", getattr(sweep, name)))
    rows = run_simulate(config) if mode is None else run_synthesize(config)
    assert [r.err for r in rows] == [""] * 6
    assert calls["tagging"] == [] and calls["one"] == []
    n_angles = config.theta_deg.count
    assert len(calls["walk"]) == 2 * n_angles
    thetas = [math.radians(t) for t in _small_axis().values()]
    walks = [(angle_walk(config.actual, t), angle_walk(config.target, t)) for t in thetas]
    k0s = [PlaneWave(f * 1e9).k0 for f in config.freq_ghz.values()]
    assert len(k0s) == 2
    transmissive = mode is Mode.TRANSMISSIVE
    acts = [(steps[1:], rho_t) if transmissive else (steps, rho_t) for (steps, rho_t), _ in walks]
    assert calls["batch"] == [
        call for k0 in k0s for call in ((acts, k0, {"_pairs": transmissive}), ([t for _, t in walks], k0))
    ]
    if transmissive:
        # one rest walk per angle, the same object at every frequency
        pairs = calls["batch"][0::2]
        assert len({id(rest) for batch, *_ in pairs for rest in batch}) == n_angles
        assert all(batch is pairs[0][0] for batch, *_ in pairs)
    folded = sum(len(batch) for batch, *_ in calls["batch"])
    assert folded == 2 * len(rows)


@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_tagged_point_folds_only_what_its_entries_lack(monkeypatch, mode):
    # the mixed-failure grid's stacks, with no failure put in: at 20 GHz a
    # round trip of the actual stack overflows at every angle; at 11 GHz its
    # total fails at the close from 20 deg up, and at 0 deg a sheet fails in
    # the step. Each frequency folds an actual and a target batch. A tagged
    # simulate or reflective point is made from its frequency's batch
    # entries alone. A tagged transmissive point's actual
    # entry is the unclosed pair of layers 2..N, so the sweep folds its
    # actual walk once more, closed, and _front_sheet folds layers 2..N
    # again where a synthesis is tried: at most two one-walk folds.
    actual = Stack(AIR, (Layer(Medium(3 + 1j), 1.0), Layer(Medium(1 + 4j), 1.0)), Pec())
    target = Stack(AIR, (Layer(AIR, wavecore.C0 / 44e9),), Pec())
    config = ScenarioConfig(actual, target, mode, SweepAxis(0.0, 80.0, 20.0), SweepAxis(2.0, 20.0, 9.0))
    calls = {"sweep": [], "one": []}
    monkeypatch.setattr(sweep, "walk_reflections", _counted(calls, "sweep", wavecore.walk_reflections))
    # walk_reflection, which _front_sheet calls, folds through wavecore's own name
    monkeypatch.setattr(wavecore, "walk_reflections", _counted(calls, "one", wavecore.walk_reflections))
    rows = run_simulate(config) if mode is None else run_synthesize(config)
    assert not any(r.err for r in rows[:4]) and all(r.err for r in rows[6:])
    k0s = [PlaneWave(f * 1e9).k0 for f in config.freq_ghz.values()]
    walks = {t: angle_walk(actual, math.radians(t)) for t in config.theta_deg.values()}
    batches = [call for call in calls["sweep"] if len(call[0]) > 1]
    assert [k0 for _, k0, *_ in batches] == [k0 for k0 in k0s for _ in range(2)]
    tagged = [(walks[r.theta_deg], PlaneWave(r.freq_ghz * 1e9).k0) for r in rows if r.err]
    if mode is not Mode.TRANSMISSIVE:
        assert calls["sweep"] == batches and calls["one"] == []
        return
    assert [call for call in calls["sweep"] if len(call[0]) == 1] == [((walk,), k0) for walk, k0 in tagged]
    # a synthesis is tried at 11 GHz, where both folds got through
    tried = [(walk, k0) for walk, k0 in tagged if k0 == k0s[1]]
    assert len(tagged) == 10 and len(tried) == 5
    assert calls["one"] == [(((steps[1:], rho_t),), k0) for (steps, rho_t), k0 in tried]


class _CountedCmath:
    """The cmath module, with each call of exp, a round trip Z_n^2 =
    e^{-j k0 a_n}, counted."""

    def __init__(self):
        self.exps = 0

    def __getattr__(self, name):
        return getattr(cmath, name)

    def exp(self, z):
        self.exps += 1
        return cmath.exp(z)


@pytest.mark.parametrize("stacks", ["builtin", "deep"])
@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_sweep_forms_each_round_trip_once_per_point(monkeypatch, stacks, mode):
    # an error-free point forms each layer's round trip once per fold or
    # inversion that reads it: simulate and a transmissive synthesis fold
    # each stack once; a reflective one also runs Gamma_i back through the
    # actual stack
    actual, target = (_deep_stack(9), _deep_stack(5))
    if stacks == "builtin":
        actual, target = builtin_scenario().actual, builtin_scenario().target
    config = ScenarioConfig(actual, target, mode, _small_axis(), SweepAxis(10.0, 10.1, 0.1))
    counted = _CountedCmath()
    for module in (wavecore, synthesis, sweep):
        monkeypatch.setattr(module, "cmath", counted)
    rows = run_simulate(config) if mode is None else run_synthesize(config)
    assert [r.err for r in rows] == [""] * 6
    n_act, n_tgt = len(actual.layers), len(target.layers)
    per_point = (2 if mode is Mode.REFLECTIVE else 1) * n_act + n_tgt
    assert counted.exps == per_point * len(rows)


def test_a_synthesis_sweep_plans_each_angle_once(monkeypatch):
    # one plan per angle, from that angle's actual walk, whatever the number
    # of frequencies; simulate plans nothing
    config = builtin_scenario()
    calls = {"plan": []}
    # a sweep takes the synthesis steps from their module when a synthesis starts
    monkeypatch.setattr(synthesis, "sheet_plan", _counted(calls, "plan", synthesis.sheet_plan))
    for mode in (None, Mode.REFLECTIVE, Mode.TRANSMISSIVE):
        small = ScenarioConfig(config.actual, config.target, mode, _small_axis(), SweepAxis(10.0, 10.2, 0.1))
        rows = run_simulate(small) if mode is None else run_synthesize(small)
        assert [r.err for r in rows] == [""] * 9
    thetas = [math.radians(t) for t in _small_axis().values()]
    assert len(thetas) == 3
    modes = (Mode.REFLECTIVE, Mode.TRANSMISSIVE)
    assert calls["plan"] == [(mode, angle_walk(config.actual, theta)) for mode in modes for theta in thetas]


def test_sweep_rows_are_tuples():
    row = SweepRow(10.0, 0.5, 0.5 - 0.25j, -1.0 + 0j)
    assert row == (10.0, 0.5, 0.5 - 0.25j, -1.0 + 0j, None, None, None, "")
    assert row._replace(err="domain").err == "domain"
    with pytest.raises(AttributeError):
        row.err = "domain"


def _round_trips_are_floats(walk, k0):
    """Whether no round trip e^{-j k0 a_n} of an angle walk overflows."""
    try:
        round_trips(walk, k0)
    except OverflowError:
        return False
    return True


def _per_point_row(actual, target, mode, f_ghz, theta_deg):
    """The row a sweep owes one grid point, from the per-point API alone:
    the actual stack's angle walk and fold, the target's Gamma_i, then
    synthesize unless the walk, one of its round trips or Gamma_i raised."""
    wave = PlaneWave(f_ghz * 1e9, math.radians(theta_deg))
    problem = IllusionProblem(actual, target, wave, mode or Mode.REFLECTIVE)
    errs = []
    walk = g_act = g_tgt = rho = aux = passive = None
    try:
        walk = problem.actual_walk
        g_act = walk_reflection(walk, wave.k0)
    except PlanemirageError as exc:
        errs.append(exc.tag)
    try:
        g_tgt = problem.gamma_i
    except PlanemirageError as exc:
        errs.append(exc.tag)
    if mode and walk is not None and g_tgt is not None and _round_trips_are_floats(walk, wave.k0):
        try:
            rho, aux, passive = synthesize(problem)
        except PlanemirageError as exc:
            errs.append(exc.tag)
    return SweepRow(f_ghz, theta_deg, g_act, g_tgt, rho, aux, passive, ";".join(errs))


def _sweep_matches_per_point_api(actual, target, mode, freq_axis, theta_axis=None):
    config = ScenarioConfig(actual, target, mode, theta_axis or _small_axis(), freq_axis)
    rows = run_simulate(config) if mode is None else run_synthesize(config)
    # repr, so that signed zeros count
    assert repr(rows) == repr([_per_point_row(actual, target, mode, r.freq_ghz, r.theta_deg) for r in rows])
    return rows


@pytest.mark.parametrize("role", ["actual", "target"])
@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_round_trip_that_overflows_at_one_frequency_is_tagged_there(role, mode):
    # 3 m of eps = 4 + 4j: the round trip overflows at 20 GHz, not at 0.1 GHz,
    # so the same angle walk fails at one frequency and serves the other
    gain = Stack(AIR, (Layer(AIR, 0.1), Layer(Medium(4 + 4j), 3.0)), Pec())
    config = builtin_scenario()
    stacks = {"actual": config.actual, "target": config.target, role: gain}
    rows = _sweep_matches_per_point_api(stacks["actual"], stacks["target"], mode, SweepAxis(0.1, 20.0, 19.9))
    assert [r.err for r in rows] == [""] * 3 + ["domain"] * 3


def test_an_actual_gamma_that_fails_at_its_close_is_still_synthesized(tmp_path):
    # 1 m of eps = 3 + j and 1 m of eps = 1 + 4j over PEC at 60 deg and
    # 10 GHz: every round trip is a float, but the actual stack's total
    # reflection overflows at the closing division. A synthesis needs the
    # round trips, not that total, so the point still gets a front sheet.
    layers = [{"eps": [3.0, 1.0], "thickness_mm": 1000.0}, {"eps": [1.0, 4.0], "thickness_mm": 1000.0}]
    doc = _scenario_doc(actual={"layers": layers, "termination": {"kind": "pec"}}, mode="transmissive")
    doc["sweep"] = {
        "theta_deg": {"start": 60.0, "stop": 60.0, "step": 1.0},
        "freq_ghz": {"start": 10.0, "stop": 10.0, "step": 1.0},
    }
    config = parse_scenario(_write_config(tmp_path, doc))
    wave = PlaneWave(10e9, math.radians(60.0))
    assert _round_trips_are_floats(angle_walk(config.actual, wave.theta1), wave.k0)
    with pytest.raises(DomainError, match="total reflection overflows"):
        chain_reflection(config.actual, wave)
    out = tmp_path / "sheet.csv"
    assert main(["synthesize", "--config", str(tmp_path / "scenario.json"), "--out", str(out)]) == 2
    header, line = out.read_text().splitlines()
    assert header.endswith(",chi_e_re,chi_e_im,passive,err")
    cells = line.split(",")
    assert cells[2:4] == ["", ""]  # g_act
    assert all(cells[4:10])  # g_tgt, rho_req and chi_e
    assert cells[-1] == "domain"
    assert run_synthesize(config) == [_per_point_row(config.actual, config.target, Mode.TRANSMISSIVE, 10.0, 60.0)]
    # a reflective synthesis is attempted at the same point, and finds the
    # terminating sheet hidden behind the lossy layers
    grid = (config.freq_ghz, config.theta_deg)
    rows = {mode: _sweep_matches_per_point_api(config.actual, config.target, mode, *grid) for mode in Mode}
    assert [r.err for r in rows[Mode.REFLECTIVE]] == ["domain;degenerate-synthesis"]
    assert [r.err for r in rows[Mode.TRANSMISSIVE]] == ["domain"]


@pytest.mark.parametrize(
    "termination", [Pec(), Open(Medium(2.0)), Sheet(0.3 - 0.4j)], ids=["pec", "open", "sheet"]
)
@pytest.mark.parametrize("mode", [Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_one_layer_actual_stack_is_synthesized_as_its_points_are(mode, termination):
    # one layer: the transmissive plan's walk of layers 2..N has no step, so
    # Gamma_2 is the termination's rho_T
    config = builtin_scenario()
    actual = Stack(AIR, config.actual.layers[1:2], termination)
    assert len(synthesis.sheet_plan(Mode.TRANSMISSIVE, angle_walk(actual, 0.0))[1][2][0]) == 0
    rows = _sweep_matches_per_point_api(actual, config.target, mode, SweepAxis(10.0, 10.1, 0.1))
    assert [r.err for r in rows] == [""] * 6
    assert all(r.rho_req is not None for r in rows)


@pytest.mark.parametrize(
    "termination", [Pec(), Open(Medium(2.0 - 0.1j)), Sheet(0.3 - 0.4j)], ids=["pec", "open", "sheet"]
)
@pytest.mark.parametrize("mode", [Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_40_layer_lossy_actual_wall_is_synthesized_as_its_points_are(mode, termination):
    # drawn stacks stop at 6 layers; a transmissive step here folds 39
    # layers into its pair before it adds the first, and a reflective one
    # runs Gamma_i back through all 40
    actual = Stack(AIR, _deep_stack(40).layers, termination)
    grid = (SweepAxis(1.0, 21.0, 10.0), SweepAxis(0.0, 80.0, 40.0))
    rows = _sweep_matches_per_point_api(actual, builtin_scenario().target, mode, *grid)
    assert [r.err for r in rows] == [""] * 9


@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_reflection_magnitude_that_overflows_is_tagged_only_where_synthesized(monkeypatch, mode):
    # rho_1 of the actual walk has finite parts, but |rho_1| is past the float
    # range: the reflective plan cannot form it, so each point that attempts
    # a terminating sheet is tagged domain, as the inversion raises there. At
    # 0.5 degrees the target's walk fails, so no synthesis is attempted and
    # no domain is tagged; a front sheet never reads rho_1.
    config = builtin_scenario()
    real = wavecore.angle_walk
    huge = complex(1.5e308, 1.5e308)

    def angle_walk(stack, theta1):
        if stack is config.target and theta1 == math.radians(0.5):
            raise DegenerateInterfaceError("interface denominator vanished")
        steps, rho_t = real(stack, theta1)
        if stack is config.actual:
            steps = ((huge, steps[0][1]),) + steps[1:]
        return steps, rho_t

    for module in (wavecore, sweep, synthesis):
        monkeypatch.setattr(module, "angle_walk", angle_walk)
    rows = _sweep_matches_per_point_api(config.actual, config.target, mode, SweepAxis(10.0, 10.1, 0.1))
    tag = "domain" if mode is Mode.REFLECTIVE else ""
    assert [r.err for r in rows] == [tag, "degenerate-interface", tag] * 2
    assert all(r.g_act is not None for r in rows)


# Stacks of 1-6 layers: lossy, gain and (behind an eps 4 incident medium, or
# where eps < sin^2 theta) evanescent media, mu != 1, thicknesses up to 1e300
# m, whose round trips leave the float range, and all three terminations.
_drawn_parts = st.floats(-2.0, 0.5)
_drawn_media = st.builds(
    lambda eps, eps_im, mu: Medium(complex(eps, eps_im), mu),
    st.floats(0.05, 12.0), _drawn_parts, st.sampled_from([1.0, 1.6 - 0.05j]),
)
_drawn_stacks = st.builds(
    lambda incident, layers, termination: Stack(incident, tuple(layers), termination),
    st.sampled_from([AIR, Medium(4.0)]),
    st.lists(
        st.builds(Layer, _drawn_media, st.one_of(st.floats(0.0, 0.2), st.just(1e300))), min_size=1, max_size=6
    ),
    st.one_of(
        st.just(Pec()),
        st.builds(Open, _drawn_media),
        st.builds(lambda re, im: Sheet(complex(re, im)), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_drawn_stacks, _drawn_stacks, st.sampled_from([Mode.REFLECTIVE, Mode.TRANSMISSIVE]))
def test_a_synthesis_sweep_of_drawn_stacks_matches_its_points(actual, target, mode):
    _sweep_matches_per_point_api(actual, target, mode, SweepAxis(1.0, 21.0, 10.0), SweepAxis(0.0, 80.0, 40.0))


@pytest.mark.parametrize("role", ["actual", "target"])
@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_walk_that_fails_at_one_angle_is_tagged_at_every_frequency(monkeypatch, role, mode):
    config = builtin_scenario()
    failing = getattr(config, role)
    real = wavecore.angle_walk

    def angle_walk(stack, theta1):
        if stack is failing and theta1 == math.radians(0.5):
            raise DegenerateInterfaceError("interface denominator vanished")
        return real(stack, theta1)

    # the sweep, chain_reflection (the target's Gamma_i) and IllusionProblem
    # (the actual walk) each call angle_walk by their own name
    for module in (wavecore, sweep, synthesis):
        monkeypatch.setattr(module, "angle_walk", angle_walk)
    rows = _sweep_matches_per_point_api(config.actual, config.target, mode, SweepAxis(10.0, 10.1, 0.1))
    assert [r.err for r in rows] == ["", "degenerate-interface", ""] * 2


_MIXED_TAGS = {
    # per frequency, 2, 11 and 20 GHz: the rows at 0, 20, 40, 60 and 80 deg
    None: [
        ["", "degenerate-interface", "resonant-singularity", "", ""],
        ["", "domain;degenerate-interface", "domain", "domain", "domain"],
        ["domain", "domain;degenerate-interface", "domain", "domain", "domain"],
    ],
    Mode.REFLECTIVE: [
        ["", "degenerate-interface", "resonant-singularity", "", "degenerate-synthesis"],
        ["degenerate-synthesis", "domain;degenerate-interface"] + ["domain;degenerate-synthesis"] * 3,
        ["domain", "domain;degenerate-interface", "domain", "domain", "domain"],
    ],
    Mode.TRANSMISSIVE: [
        ["", "degenerate-interface", "resonant-singularity", "", ""],
        ["degenerate-synthesis", "domain;degenerate-interface", "domain", "domain", "domain"],
        ["domain", "domain;degenerate-interface", "domain", "domain", "domain"],
    ],
}


@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_grid_of_mixed_failures_matches_its_points(monkeypatch, mode):
    # Error-free points share each frequency and each angle with failing ones:
    #   * the target's walk fails at 20 deg, at every frequency;
    #   * at 20 GHz the round trip across the actual stack's 1 m of
    #     eps = 1 + 4j overflows, at every angle;
    #   * at 2 GHz and 40 deg the target's total is singular, between the
    #     actual walk's fold, which succeeds, and the next angle's in the
    #     frequency's batch;
    #   * from 40 deg up at 11 GHz, the actual Gamma fails only at its
    #     closing division, so a front sheet is still synthesized; a
    #     terminating sheet is hidden behind the lossy layer there, and at
    #     0 deg 11 GHz and 80 deg 2 GHz, where both folds succeed;
    #   * the target, a quarter wave of air over PEC at 11 GHz and 0 deg,
    #     reflects 1 there, so a front sheet fails only in the step.
    # Where a call raised, the sweep makes the row by the tagging rules.
    actual = Stack(AIR, (Layer(Medium(3 + 1j), 1.0), Layer(Medium(1 + 4j), 1.0)), Pec())
    target = Stack(AIR, (Layer(AIR, wavecore.C0 / 44e9),), Pec())
    real_walk, real_folds = wavecore.angle_walk, wavecore.walk_reflections
    failing_fold = (real_walk(target, math.radians(40.0)), PlaneWave(2e9).k0)

    def angle_walk(stack, theta1):
        if stack is target and theta1 == math.radians(20.0):
            raise DegenerateInterfaceError("interface denominator vanished")
        return real_walk(stack, theta1)

    def walk_reflections(walks, k0, _pairs=False):
        # the failing fold gets through to a pair whose total is singular:
        # closed, its entry is the error that _close raises
        folds = real_folds(walks, k0, _pairs)
        singular = (1.0 + 0j, 0j) if _pairs else ResonantSingularityError("total-reflection denominator vanished")
        return [singular if (walk, k0) == failing_fold else fold for walk, fold in zip(walks, folds)]

    # the sweep, chain_reflection and IllusionProblem each call angle_walk by
    # their own name; every fold, the sweep's batches and walk_reflection's
    # one walk, goes through walk_reflections
    for module in (wavecore, sweep, synthesis):
        monkeypatch.setattr(module, "angle_walk", angle_walk)
    for module in (wavecore, sweep):
        monkeypatch.setattr(module, "walk_reflections", walk_reflections)
    grid = (SweepAxis(2.0, 20.0, 9.0), SweepAxis(0.0, 80.0, 20.0))
    rows = _sweep_matches_per_point_api(actual, target, mode, *grid)
    assert [r.err for r in rows] == sum(_MIXED_TAGS[mode], [])
    if mode is Mode.TRANSMISSIVE:
        assert [r.rho_req is not None for r in rows[7:10]] == [True] * 3


def test_run_synthesize_requires_mode():
    config = builtin_scenario()
    no_mode = ScenarioConfig(config.actual, config.target, None, _small_axis(), SweepAxis(10, 10, 1))
    with pytest.raises(ConfigError):
        run_synthesize(no_mode)


@pytest.mark.parametrize("mode", [Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_run_synthesize_takes_any_number_of_layers(mode):
    config = builtin_scenario()
    for layers in (config.actual.layers[:1], config.actual.layers[:2], config.actual.layers * 3):
        actual = Stack(AIR, layers, Pec())
        rows = run_synthesize(ScenarioConfig(actual, config.target, mode, _small_axis(), SweepAxis(10, 10, 1)))
        assert [r.err for r in rows] == ["", "", ""]
        assert all(r.rho_req is not None for r in rows)


def test_csv_emission_bytes(tmp_path):
    rows = [
        SweepRow(10.0, 0.0, 0.5 - 0.25j, -1.0 + 0j),
        SweepRow(10.0, 0.5, None, None, err="resonant-singularity"),
    ]
    out = tmp_path / "table.csv"
    emit(rows, None, "csv", out)
    text = out.read_bytes().decode("utf-8")
    assert text.splitlines() == [
        _SIM_HEADER,
        "10,0,0.5,-0.25,-1,0,",
        "10,0.5,,,,,resonant-singularity",
    ]
    assert text.endswith("\n")
    emit(rows, None, "csv", tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()


@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_each_theta_cell_is_written_from_its_own_value(tmp_path, mode):
    # theta_deg cells are kept per value, but 0.0 and -0.0 are equal keys
    # that %.17g writes as two cells; an err row takes the same cells
    thetas = [0.0, -0.0, 0.0, 12.25, 12.25]
    sheet = (None,) * 3 if mode is None else (0.5 + 0.5j, 1.0 - 2.0j, True)
    rows = [(10.0, theta, 0.5 - 0.25j, -1.0 + 0j, *sheet, "") for theta in thetas]
    rows[3] = SweepRow(10.0, 12.25, None, -1.0 + 0j, err="domain")
    out = tmp_path / "thetas.csv"
    assert emit(rows, mode, "csv", out) == 1
    lines = out.read_text().splitlines()[1:]
    assert [line.split(",")[1] for line in lines] == ["0", "-0", "0", "12.25", "12.25"]
    assert lines[3].startswith("10,12.25,,,-1,0,") and lines[3].endswith(",domain")


@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_sweep_lines_follow_the_cell_rule(tmp_path, mode):
    # rows with no err take one format string; they must read as the one
    # cell rule writes them, and so must the rows with an err
    config = builtin_scenario()
    gain = Stack(AIR, (Layer(AIR, 0.1), Layer(Medium(4 + 4j), 3.0)), Pec())
    rows = []
    for actual in (config.actual, gain):
        grid = ScenarioConfig(actual, config.target, mode, config.theta_deg, SweepAxis(10.0, 20.0, 5.0))
        rows += run_simulate(grid) if mode is None else run_synthesize(grid)
    assert {bool(r.err) for r in rows} == {False, True}
    assert all(type(r) is SweepRow for r in rows)
    # The formatter writes a frequency's cell once for a run of rows that
    # share one float object, as a sweep's do. The first frequency recurs
    # here after the others as an equal float that is another object.
    first = rows[0].freq_ghz
    again = float(repr(first))
    assert again == first and again is not first
    rows += [r._replace(freq_ghz=again) for r in rows if r.freq_ghz == first]
    out = tmp_path / "table.csv"
    emit(rows, mode, "csv", out)

    def line(r):
        values = [r.freq_ghz, r.theta_deg]
        for value in (r.g_act, r.g_tgt) + (() if mode is None else (r.rho_req, r.aux)):
            values += [None, None] if value is None else [value]  # a missing complex: two cells
        return ",".join(_cells(values + ([] if mode is None else [r.passive]) + [r.err]))

    assert out.read_text().split("\n")[1:] == [line(r) for r in rows] + [""]
    # the sweep streams plain tuples in SweepRow order; emit writes the same bytes from them
    for output_format in ("csv", "svg"):
        emit(rows, mode, output_format, tmp_path / f"rows.{output_format}")
        emit(map(tuple, rows), mode, output_format, tmp_path / f"tuples.{output_format}")
        assert (tmp_path / f"tuples.{output_format}").read_bytes() == (
            tmp_path / f"rows.{output_format}"
        ).read_bytes()


@pytest.mark.parametrize("output_format", ["csv", "svg"])
def test_emit_refuses_an_unknown_mode_as_an_unknown_format(tmp_path, output_format):
    out = tmp_path / f"rows.{output_format}"
    with pytest.raises(ConfigError, match="^mode must be a Mode or None, got 'reflective'$"):
        emit([], "reflective", output_format, out)
    with pytest.raises(ConfigError, match="^output format must be csv or svg"):
        emit([], Mode.REFLECTIVE, "pdf", out)
    assert not out.exists()


def test_csv_empty_table_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit([], Mode.REFLECTIVE, "csv", out)
    assert out.read_text().splitlines() == [
        "freq_ghz,theta_deg,g_act_re,g_act_im,g_tgt_re,g_tgt_im,"
        "rho_req_re,rho_req_im,eta_n_re,eta_n_im,passive,err"
    ]


def test_svg_emission(tmp_path):
    config = builtin_scenario()
    small = ScenarioConfig(
        config.actual, config.target, Mode.REFLECTIVE, SweepAxis(0.0, 10.0, 1.0), SweepAxis(10, 10, 1)
    )
    rows = run_synthesize(small)
    out = tmp_path / "plot.svg"
    emit(rows, Mode.REFLECTIVE, "svg", out)
    text = out.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 6  # three series in each of two panels
    emit(rows, Mode.REFLECTIVE, "svg", tmp_path / "plot2.svg")
    assert (tmp_path / "plot2.svg").read_bytes() == out.read_bytes()


def test_main_synthesize_end_to_end(tmp_path):
    config_path = _write_config(tmp_path, _scenario_doc())
    out = tmp_path / "result.csv"
    assert main(["synthesize", "--config", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("freq_ghz,theta_deg,")
    assert "eta_n_re" in lines[0]
    assert len(lines) == 4  # header + 1 freq x 3 thetas
    assert all(line.endswith(",1,") for line in lines[1:])  # passive, no errors


def test_main_mode_override(tmp_path):
    config_path = _write_config(tmp_path, _scenario_doc())
    out = tmp_path / "result.csv"
    assert main(
        ["synthesize", "--config", str(config_path), "--mode", "transmissive", "--out", str(out)]
    ) == 0
    assert "chi_e_re" in out.read_text().splitlines()[0]


def test_main_simulate_builtin(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", "builtin", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == _SIM_HEADER
    assert len(lines) == 1 + 161 * 21


def test_main_rejects_zero_permeability(tmp_path, capsys):
    doc = _scenario_doc()
    doc["actual"]["layers"][1]["mu"] = 0
    config_path = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["synthesize"]])
def test_main_rejects_a_medium_whose_wavenumber_underflows(tmp_path, capsys, command):
    # eps*mu = 1e-400 is 0 in floating point, so refraction would divide by zero
    doc = _scenario_doc()
    doc["actual"]["layers"][1].update(eps=1e-200, mu=1e-200)
    config_path = _write_config(tmp_path, doc)
    assert main(command + ["--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("eps,mu", [(1e-200, 1e200), (1e200, 1e-200)])
def test_main_rejects_a_medium_whose_impedance_leaves_the_float_range(tmp_path, capsys, eps, mu):
    # mu/eps is 1e400 (inf) or 1e-400 (0), although eps*mu = 1
    doc = _scenario_doc()
    doc["actual"]["layers"][1].update(eps=eps, mu=mu)
    config_path = _write_config(tmp_path, doc)
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "mu_r/eps_r" in err


def test_main_config_conflicts(tmp_path):
    config_path = _write_config(tmp_path, _scenario_doc())
    out = tmp_path / "x.csv"
    assert main(["synthesize", "--scenario", "builtin", "--config", str(config_path), "--out", str(out)]) == 1
    assert main(["synthesize", "--config", str(config_path)]) == 1  # no output path
    assert main(["synthesize", "--out", str(out)]) == 1  # no config at all


def test_main_select_cell(tmp_path):
    config_path = _write_config(
        tmp_path,
        {
            "map": "sample",
            "frequency_ghz": 4.5,
            "rho_target": {"amplitude": 0.5, "phase_deg": 64.0},
        },
        name="select.json",
    )
    out = tmp_path / "cell.csv"
    assert main(["select-cell", "--config", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "f_ghz,r_ohm,c_pf,rho_re,rho_im"
    cells = lines[1].split(",")
    assert (float(cells[0]), float(cells[1]), float(cells[2])) == (4.5, 27.0, 0.35)


def test_main_select_cell_pair_target(tmp_path):
    config_path = _write_config(
        tmp_path,
        {"map": "sample", "frequency_ghz": 5.0, "rho_target": [0.1, 0.2], "phase_only": True},
        name="select2.json",
    )
    out = tmp_path / "cell.csv"
    assert main(["select-cell", "--config", str(config_path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_main_coding_set(tmp_path):
    config_path = _write_config(
        tmp_path, {"map": "sample", "frequency_ghz": 5.0, "n_bit": 2}, name="coding.json"
    )
    out = tmp_path / "coding.csv"
    assert main(["coding-set", "--config", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "slot,target_phase_rad,f_ghz,r_ohm,c_pf,rho_re,rho_im"
    assert len(lines) == 5
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]


def test_main_companion_to_map(tmp_path):
    config_path = _write_config(
        tmp_path, {"r1_mm": 50.0, "r2_mm": 300.0, "q": 3.0, "samples": 11}, name="map.json"
    )
    out = tmp_path / "map.csv"
    assert main(["companion", "to-map", "--config", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r_mm,r_prime_mm,r_back_mm"
    assert len(lines) == 12
    for line in lines[1:]:
        r, _r_prime, r_back = (float(v) for v in line.split(","))
        assert abs(r - r_back) < 1e-9


def test_main_companion_pb_phase(tmp_path):
    config_path = _write_config(
        tmp_path, {"amplitude": 0.8, "period_mm": 12.0, "sigma": -1, "samples": 5}, name="pb.json"
    )
    out = tmp_path / "pb.csv"
    assert main(["companion", "pb-phase", "--config", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x_mm,height_mm,phase_rad"
    assert len(lines) == 6
    first_phase = float(lines[1].split(",")[2])
    assert abs(first_phase - (-2.0 * math.atan(0.8))) < 1e-12


def test_main_companion_grating(tmp_path):
    config_path = _write_config(
        tmp_path, {"wavelength_mm": 30.0, "period_mm": 60.0, "max_order": 3}, name="grating.json"
    )
    out = tmp_path / "grating.csv"
    assert main(["companion", "grating", "--config", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,theta_deg,err"
    assert len(lines) == 8
    table = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    assert table["0"] == ["0", ""]
    assert abs(float(table["1"][0]) - 30.0) < 1e-9
    assert table["3"] == ["", "evanescent-order"]
    assert table["-3"] == ["", "evanescent-order"]


# Exact CSV text of each table command, as written before the commands
# shared one writer; the near-zero cells carry libm rounding (x86-64 Linux).
_TABLE_GOLDEN = {
    "select-polar": (
        ["select-cell"],
        {"map": "sample", "frequency_ghz": 4.5, "rho_target": {"amplitude": 0.5, "phase_deg": 64.0}},
        "f_ghz,r_ohm,c_pf,rho_re,rho_im\n"
        "4.5,27,0.34999999999999998,0.21918557339453873,0.44939702314958352\n",
    ),
    "select-pair": (
        ["select-cell"],
        {"map": "sample", "frequency_ghz": 5.0, "rho_target": [0.1, 0.2], "phase_only": True},
        "f_ghz,r_ohm,c_pf,rho_re,rho_im\n"
        "5,33,0.29999999999999999,0.17767082756622884,0.37372814723879061\n",
    ),
    "coding-set": (
        ["coding-set"],
        {"map": "sample", "frequency_ghz": 5.0, "n_bit": 2},
        "slot,target_phase_rad,f_ghz,r_ohm,c_pf,rho_re,rho_im\n"
        "0,1.8842340895262313,5,10,0.20000000000000001,-0.27494060015436306,0.84826214375973497\n"
        "1,3.4550304163211276,5,100,0.80000000000000004,-0.28104372003339179,-0.16344230481700645\n"
        "2,5.0258267431160242,5,10,1,0.23081987927869721,-0.77392836494933859\n"
        "3,6.5966230699109207,5,10,0.34999999999999998,0.64733188974435385,0.33988621446686773\n",
    ),
    "to-map": (
        ["companion", "to-map"],
        {"r1_mm": 50.0, "r2_mm": 300.0, "q": 3.0, "samples": 5},
        "r_mm,r_prime_mm,r_back_mm\n"
        "0,0,0\n"
        "75,24.999999999999996,75\n"
        "150,49.999999999999993,150\n"
        "224.99999999999997,175.00000000000003,225\n"
        "300,300,299.99999999999994\n",
    ),
    "pb-phase": (
        ["companion", "pb-phase"],
        {"amplitude": 0.8, "period_mm": 12.0, "sigma": -1, "samples": 5},
        "x_mm,height_mm,phase_rad\n"
        "0,0,-1.3494818844471055\n"
        "3,1.5278874536821954,-9.7971743931788262e-17\n"
        "6,1.8711224796093006e-16,1.3494818844471055\n"
        "9.0000000000000018,-1.5278874536821954,-1.1271702397248355e-15\n"
        "12,-3.7422449592186012e-16,-1.3494818844471055\n",
    ),
    "grating": (
        ["companion", "grating"],
        {"wavelength_mm": 30.0, "period_mm": 60.0, "max_order": 3},
        "m,theta_deg,err\n"
        "-3,,evanescent-order\n"
        "-2,-90,\n"
        "-1,-30.000000000000004,\n"
        "0,0,\n"
        "1,30.000000000000004,\n"
        "2,90,\n"
        "3,,evanescent-order\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_TABLE_GOLDEN))
def test_table_commands_write_golden_bytes(tmp_path, case):
    command, doc, expected = _TABLE_GOLDEN[case]
    out = tmp_path / "table.csv"
    assert main(command + ["--config", str(_write_config(tmp_path, doc)), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")


# Table configs that would crash, build a row list without bound, or hold
# a value of the wrong kind, and a synthesis with no mode: each is refused
# with exit 1, this start of stderr, where {config} is the config path as
# given, and no file. The longest table may have MAX_AXIS_POINTS rows, as a
# sweep axis may have points.
_REFUSED_TABLES = {
    "coding-set-n_bit-20000": (
        ["coding-set"],
        {"map": "sample", "frequency_ghz": 5.0, "n_bit": 20000},
        "planemirage: error: need 2^20000 states ",
    ),
    "grating-max_order-400-digits": (
        ["companion", "grating"],
        {"wavelength_mm": 30.0, "period_mm": 60.0, "max_order": 10**400},
        "planemirage: config error: max_order: ",
    ),
    "grating-max_order-past-the-rows": (
        ["companion", "grating"],
        {"wavelength_mm": 30.0, "period_mm": 60.0, "max_order": MAX_AXIS_POINTS // 2},
        "planemirage: config error: max_order: gives more than 1,000,000 rows",
    ),
    "to-map-samples-past-the-rows": (
        ["companion", "to-map"],
        {"r1_mm": 50.0, "r2_mm": 300.0, "q": 3.0, "samples": MAX_AXIS_POINTS + 1},
        "planemirage: config error: samples: gives more than 1,000,000 rows",
    ),
    "pb-phase-samples-400-digits": (
        ["companion", "pb-phase"],
        {"amplitude": 0.8, "period_mm": 12.0, "samples": 10**400},
        "planemirage: config error: samples: ",
    ),
    "to-map-r2-400-digits": (
        ["companion", "to-map"],
        {"r1_mm": 50.0, "r2_mm": 10**400, "q": 3.0},
        "planemirage: config error: r2_mm: an integer past the float range",
    ),
    "select-cell-map-a-number": (
        ["select-cell"],
        {"map": 5, "frequency_ghz": 4.5, "rho_target": 0.5},
        "planemirage: config error: {config}.map: expected 'sample' or a file path",
    ),
    # a map path is opened as given, relative to the working directory
    "select-cell-map-file-missing": (
        ["select-cell"],
        {"map": "missing-map.csv", "frequency_ghz": 4.5, "rho_target": 0.5},
        "planemirage: config error: {config}.map: cannot read missing-map.csv: "
        "[Errno 2] No such file or directory: 'missing-map.csv'\n",
    ),
    "coding-set-map-file-missing": (
        ["coding-set"],
        {"map": "missing-map.csv", "frequency_ghz": 5.0, "n_bit": 2},
        "planemirage: config error: {config}.map: cannot read missing-map.csv: "
        "[Errno 2] No such file or directory: 'missing-map.csv'\n",
    ),
    "select-cell-phase_only-a-string": (
        ["select-cell"],
        {"map": "sample", "frequency_ghz": 4.5, "rho_target": 0.5, "phase_only": "yes"},
        "planemirage: config error: phase_only: expected true or false",
    ),
    "coding-set-n_bit-a-float": (
        ["coding-set"],
        {"map": "sample", "frequency_ghz": 5.0, "n_bit": 2.5},
        "planemirage: config error: n_bit: expected an integer, got 2.5",
    ),
    "coding-set-min_amplitude-below-0": (
        ["coding-set"],
        {"map": "sample", "frequency_ghz": 5.0, "n_bit": 2, "min_amplitude": -0.1},
        "planemirage: error: min_amplitude must be >= 0, got -0.1",
    ),
    # the test writes this map, whose first byte is not UTF-8
    "select-cell-map-not-utf8": (
        ["select-cell"],
        {"map": "not-utf8.csv", "frequency_ghz": 4.5, "rho_target": 0.5},
        "planemirage: error: not-utf8.csv: not UTF-8 text (invalid start byte at byte 0)\n",
    ),
    "coding-set-map-not-utf8": (
        ["coding-set"],
        {"map": "not-utf8.csv", "frequency_ghz": 5.0, "n_bit": 2},
        "planemirage: error: not-utf8.csv: not UTF-8 text (invalid start byte at byte 0)\n",
    ),
    "pb-phase-sigma-2": (
        ["companion", "pb-phase"],
        {"amplitude": 0.8, "period_mm": 12.0, "sigma": 2},
        "planemirage: config error: sigma: expected 1 or -1, got 2",
    ),
    "synthesize-without-a-mode": (
        ["synthesize"],
        {key: value for key, value in _scenario_doc().items() if key != "mode"},
        "planemirage: config error: synthesize needs a mode (reflective or transmissive)",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_TABLES))
def test_an_oversized_table_config_is_refused(monkeypatch, tmp_path, capsys, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-utf8.csv").write_bytes(b"\xff\xfe not utf-8\n")
    command, doc, start = _REFUSED_TABLES[case]
    config = _write_config(tmp_path, doc)
    out = tmp_path / "table.csv"
    assert main(command + ["--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(start.format(config=config))
    assert not out.exists()


def test_a_table_may_have_as_many_rows_as_an_axis_points(monkeypatch, tmp_path):
    from planemirage import tables

    monkeypatch.setattr(tables, "MAX_AXIS_POINTS", 7)
    cases = (
        (["companion", "grating"], {"wavelength_mm": 30.0, "period_mm": 60.0}, "max_order", 3),
        (["companion", "to-map"], {"r1_mm": 50.0, "r2_mm": 300.0, "q": 3.0}, "samples", 7),
        (["companion", "pb-phase"], {"amplitude": 0.8, "period_mm": 12.0}, "samples", 7),
    )
    for command, doc, key, most in cases:
        for value, code in ((most, 0), (most + 1, 1)):
            out = tmp_path / f"{command[-1]}-{value}.csv"
            config = _write_config(tmp_path, {**doc, key: value})
            assert main(command + ["--config", str(config), "--out", str(out)]) == code
            assert out.exists() is (code == 0)
        assert len((tmp_path / f"{command[-1]}-{most}.csv").read_text().splitlines()) == 1 + 7


def test_an_svg_of_a_reflection_past_the_float_range_is_finite(tmp_path, capsys):
    # a sheet whose |rho| is past the float range, behind 0 mm of air: the
    # actual Gamma is finite, its amplitude inf. The amplitude panel's top
    # stays finite and such a point is drawn there; the file holds no inf or nan
    doc = _scenario_doc(output={"format": "svg"})
    doc["actual"] = {
        "layers": [{"eps": 1.0, "thickness_mm": 0.0}],
        "termination": {"kind": "sheet", "rho": [1.7e308, 1.7e308]},
    }
    config = _write_config(tmp_path, doc)
    svgs = []
    for run in "ab":
        out = tmp_path / f"{run}.svg"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        svgs.append(out.read_bytes())
    assert capsys.readouterr().err == ""
    assert svgs[0] == svgs[1]
    text = svgs[0].decode("ascii")
    assert not re.search(r"inf|nan", text, re.I)
    assert '<text x="6" y="52">1.8e+308</text>' in text
    assert ' 430.00,40.00 ' in text  # the 0.5 deg point at the amplitude panel's top


# A reflection map row whose |rho| is past the float range, among the
# sample map's states at 5 GHz, and a target there: its distance, and its
# modulus, is inf, so it ranks last for select-cell and anchors a coding set.
_HUGE_RHO = "5,1,1,1.7e308,1.7e308\n"


def test_a_reflection_past_the_float_range_ranks_by_an_infinite_modulus(monkeypatch, tmp_path, capsys):
    from planemirage.unitcell import SAMPLE_MAP_RESOURCE

    monkeypatch.chdir(tmp_path)
    sample = files("planemirage.data").joinpath(SAMPLE_MAP_RESOURCE).read_text("utf-8")
    (tmp_path / "map.csv").write_text(sample + _HUGE_RHO)
    cases = (
        # every distance is inf: the smallest R, then C, of the sample map
        (["select-cell"], {"map": "sample", "frequency_ghz": 5.0, "rho_target": [1.7e308, 1.7e308]},
         "5,10,0.20000000000000001,"),
        # the huge row is farthest from every target and never chosen
        (["select-cell"], {"map": "map.csv", "frequency_ghz": 5.0, "rho_target": [1e300, 1e300]},
         "5,10,0.20000000000000001,"),
        # the huge row has the highest amplitude, so it anchors slot 0
        (["coding-set"], {"map": "map.csv", "frequency_ghz": 5.0, "n_bit": 2},
         "0,0.78539816339744828,5,1,1,1.6999999999999999e+308,1.6999999999999999e+308"),
    )
    for command, doc, row in cases:
        out = tmp_path / "table.csv"
        assert main(command + ["--config", str(_write_config(tmp_path, doc)), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith(row)
    assert capsys.readouterr().err == ""


def test_a_strip_whose_height_leaves_the_float_range_is_refused(tmp_path, capsys):
    # A*(P/2pi) past the float range in m, and within it in m but not in mm
    cases = (
        ({"amplitude": 1e308, "period_mm": 1e300, "samples": 3},
         "planemirage: error: peak height A*(P/2pi) is past the float range: amplitude 1e+308, period 1e+297\n"),
        ({"amplitude": 1e308, "period_mm": 60.0, "samples": 5},
         "planemirage: config error: amplitude, period_mm: the peak height in mm is past the float range\n"),
    )
    for doc, err in cases:
        out = tmp_path / "table.csv"
        argv = ["companion", "pb-phase", "--config", str(_write_config(tmp_path, doc)), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()


# Every command and mode, each reading its config and, for select-cell and
# coding-set, a map file in the working directory.
_EVERY_COMMAND = {
    "simulate": (["simulate"], _scenario_doc()),
    "simulate-svg": (["simulate"], _scenario_doc(output={"format": "svg"})),
    "reflective": (["synthesize", "--mode", "reflective"], _scenario_doc()),
    "transmissive": (["synthesize", "--mode", "transmissive"], _scenario_doc()),
    "select-cell": (["select-cell"], {**_TABLE_GOLDEN["select-polar"][1], "map": "map.csv"}),
    "coding-set": (["coding-set"], {**_TABLE_GOLDEN["coding-set"][1], "map": "map.csv"}),
    **{name: _TABLE_GOLDEN[name][:2] for name in ("to-map", "pb-phase", "grating")},
}


@pytest.mark.parametrize("case", sorted(_EVERY_COMMAND))
def test_a_command_closes_every_file_it_opens(monkeypatch, tmp_path, case):
    # cli.run freezes the heap before exit, so a file that only a collection
    # would close is never closed there; its ResourceWarning shows one here
    from planemirage.unitcell import SAMPLE_MAP_RESOURCE

    monkeypatch.chdir(tmp_path)
    (tmp_path / "map.csv").write_bytes(files("planemirage.data").joinpath(SAMPLE_MAP_RESOURCE).read_bytes())
    command, doc = _EVERY_COMMAND[case]
    argv = command + ["--config", str(_write_config(tmp_path, doc)), "--out", "out"]
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(argv) == 0
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert (tmp_path / "out").stat().st_size > 0


# sha256 of each builtin sweep table (3,381 rows), as written by the sweep
# whose sheet step was still inlined in cli; libm rounding of x86-64 Linux.
_SWEEP_GOLDEN_SHA256 = {
    "simulate": "892a75f831e197122b8e0a1d02f49c890fb796f978c7ba66e9a7a8c5793e581c",
    "synthesize --mode reflective": "04b8f506ab816f669b0096f656d9c94a4457d53c9b1c78eb474fa383650d3df7",
    "synthesize --mode transmissive": "2498ac9fc5688fb10a647f584afedc672104e1e47a98ee01edf7240f32c78ef2",
}


@pytest.mark.parametrize("command", sorted(_SWEEP_GOLDEN_SHA256))
def test_builtin_sweeps_write_golden_bytes(tmp_path, command):
    out = tmp_path / "sweep.csv"
    assert main(command.split() + ["--scenario", "builtin", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SWEEP_GOLDEN_SHA256[command]


# sha256 of each sweep table of a config that reaches branches the builtin
# stacks never do, as written by the walk that built one wave state per
# layer; libm rounding of x86-64 Linux. Both stacks are met from eps 4, so
# their air gaps turn evanescent past 30 degrees; the actual stack has a
# layer with mu != 1, a gain layer and a sheet termination, the target a
# lossy mu 1.1 half-space behind it.
_REGIME_DOC = {
    "actual": {
        "incident": {"eps": 4.0},
        "layers": [
            {"eps": 1.0, "thickness_mm": 8.0},
            {"eps": [3.9, -0.08], "mu": [1.6, -0.05], "thickness_mm": 20.0},
            {"eps": [3.0, 0.02], "thickness_mm": 15.0},
        ],
        "termination": {"kind": "sheet", "rho": [0.3, -0.4]},
    },
    "target": {
        "incident": {"eps": 4.0},
        "layers": [{"eps": 1.0, "thickness_mm": 5.0}, {"eps": [2.1, -0.0006], "thickness_mm": 30.0}],
        "termination": {"kind": "open", "eps": [2.0, -0.1], "mu": 1.1},
    },
    "sweep": {
        "theta_deg": {"start": 0.0, "stop": 80.0, "step": 2.0},
        "freq_ghz": {"start": 8.0, "stop": 12.0, "step": 0.5},
    },
}
_REGIME_GOLDEN_SHA256 = {
    "simulate": "7bc627fc2bd5907f07944945bd42d2fbe902c0e275780c6ca491e0b0ebef06a9",
    "synthesize --mode reflective": "5505d559b9cf1324a52a5b43252935d339f213b195a956c9bd5a6469c1acc45b",
    "synthesize --mode transmissive": "62117f976e75d3edab5e6190a9f277b80cbc4211878cd2c5b42c7dc7e232634f",
}


@pytest.mark.parametrize("command", sorted(_REGIME_GOLDEN_SHA256))
def test_regime_sweeps_write_golden_bytes(tmp_path, command):
    config, out = _write_config(tmp_path, _REGIME_DOC), tmp_path / "sweep.csv"
    assert main(command.split() + ["--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _REGIME_GOLDEN_SHA256[command]


# sha256 of two SVG plots of the builtin stacks, as written by the emitter
# that still kept every row; libm rounding of x86-64 Linux. The builtin grid
# puts the incidence angle on the x axis; one angle over 41 frequencies puts
# frequency there.
# A gain stack, 100 mm of air over 3 m of eps = 4 + 4j over PEC: the round
# trip across the gain layer overflows above about 6 GHz, so those rows are
# tagged domain and draw no actual Gamma and no sheet.
_GAIN_STACK = {
    "layers": [{"eps": 1.0, "thickness_mm": 100.0}, {"eps": [4.0, 4.0], "thickness_mm": 3000.0}],
    "termination": {"kind": "pec"},
}

# id -> (command, (theta, freq) axes, actual stack or None for the builtin one, sha256)
_SVG_GOLDEN_SHA256 = {
    "simulate": (
        "simulate",
        ((0.0, 80.0, 0.5), (10.0, 12.0, 0.1)),
        None,
        "1901855e974e013ad35e1e341dd64a98f22abd942229868bdd597674a8074f37",
    ),
    "synthesize --mode transmissive": (
        "synthesize --mode transmissive",
        ((30.0, 30.0, 0.5), (10.0, 12.0, 0.05)),
        None,
        "a841dbe378f6d141f812345b90df296ef6e02efc24542c325536465367846c84",
    ),
    "synthesize --mode reflective": (
        "synthesize --mode reflective",
        ((0.0, 80.0, 2.0), (10.0, 12.0, 0.25)),
        None,
        "6e29cb94395bfe589e20e99cdd7a9770f7c4b10b338d426ac853ba10b86b54ad",
    ),
    "gain-stack-tagged": (
        "synthesize --mode reflective",
        ((0.0, 80.0, 10.0), (0.1, 20.0, 1.0)),
        _GAIN_STACK,
        "96166eaf4fc32d686a1e00d84dce98bc99adf1be5d1b38496db1675fdccbbe07",
    ),
}


def _svg_doc(theta, freq, actual=None):
    """The builtin stacks, or actual over the builtin target, over the given
    (start, stop, step) axes, as SVG."""
    doc = _builtin_stacks_doc(12.0)
    if actual is not None:
        doc["actual"] = actual
    doc["sweep"] = {
        name: dict(zip(("start", "stop", "step"), axis))
        for name, axis in (("theta_deg", theta), ("freq_ghz", freq))
    }
    doc["output"] = {"format": "svg"}
    return doc


@pytest.mark.parametrize("case", sorted(_SVG_GOLDEN_SHA256))
def test_svg_plots_write_golden_bytes(tmp_path, case):
    command, axes, actual, digest = _SVG_GOLDEN_SHA256[case]
    config, out = _write_config(tmp_path, _svg_doc(*axes, actual)), tmp_path / "plot.svg"
    assert main(command.split() + ["--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 and err-tag counts of each sweep table of the gain stack over the
# builtin target on 161 x 191 points, 0-80 deg by 0.5 and 0.1-19.1 GHz by
# 0.1, as written by the sweep that folded each tagged point's walks again
# one by one; libm rounding of x86-64 Linux. 21,246 of the 30,751 points
# take the tagging rules.
_GAIN_GRID_GOLDEN = {
    "simulate": (
        "cc21d558f885087b6c2f6130827c56c93d686189f526833fe274a71e724791ea",
        {"": 9505, "domain": 21246},
    ),
    "synthesize --mode reflective": (
        "6bbda9e9af6aef55fcc1304aa099d92290f5ec2ee80216eb639acc15692f0a81",
        {"": 9503, "domain": 21243, "domain;domain": 3, "degenerate-synthesis": 2},
    ),
    "synthesize --mode transmissive": (
        "a2f176ae4aa94bb66152f920aa52a6d989dae187de969301ecca7e5b32174ad0",
        {"": 9505, "domain": 21246},
    ),
}


@pytest.mark.parametrize("command", sorted(_GAIN_GRID_GOLDEN))
def test_a_grid_of_tagged_points_writes_golden_bytes(tmp_path, command):
    doc = _builtin_stacks_doc(19.1)
    doc["actual"] = _GAIN_STACK
    doc["sweep"]["freq_ghz"]["start"] = 0.1
    config, out = _write_config(tmp_path, doc), tmp_path / "sweep.csv"
    assert main(command.split() + ["--config", str(config), "--out", str(out)]) == 0
    digest, tags = _GAIN_GRID_GOLDEN[command]
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 161 * 191
    counts = {}
    for line in lines:
        tag = line.rsplit(",", 1)[1]
        counts[tag] = counts.get(tag, 0) + 1
    assert counts == tags
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_main_companion_bad_samples(tmp_path):
    config_path = _write_config(
        tmp_path, {"r1_mm": 50.0, "r2_mm": 300.0, "q": 3.0, "samples": 1}, name="bad.json"
    )
    assert main(["companion", "to-map", "--config", str(config_path), "--out", str(tmp_path / "x.csv")]) == 1


def _degenerate_target_doc(frequency_ghz):
    """Target whose reflection sits exactly on the synthesis pole at theta = 0."""
    actual = builtin_scenario().actual
    wave = PlaneWave(frequency_ghz * 1e9, 0.0)
    m = chain_matrix(segment_triples(actual, wave))
    thickness = 0.015
    shell = Stack(AIR, (Layer(AIR, thickness),), Sheet(0j))
    (z2_1,) = round_trips(angle_walk(shell, wave.theta1), wave.k0)
    rho_t = (m[3] / m[1]) / z2_1
    return {
        "layers": [{"eps": 1.0, "thickness_mm": thickness * 1e3}],
        "termination": {"kind": "sheet", "rho": [rho_t.real, rho_t.imag]},
    }


def test_exit_code_2_when_every_point_fails(tmp_path):
    doc = _scenario_doc(target=_degenerate_target_doc(10.0))
    doc["sweep"] = {
        "theta_deg": {"start": 0.0, "stop": 0.0, "step": 0.5},
        "freq_ghz": {"start": 10.0, "stop": 10.0, "step": 0.1},
    }
    config_path = _write_config(tmp_path, doc, name="degenerate.json")
    out = tmp_path / "deg.csv"
    assert main(["synthesize", "--config", str(config_path), "--out", str(out)]) == 2
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",degenerate-synthesis")
    assert ",,," in lines[1]  # sheet state cells left empty


@pytest.mark.parametrize("output_format", ["csv", "svg"])
@pytest.mark.parametrize(
    "command",
    [["simulate"], ["synthesize", "--mode", "reflective"], ["synthesize", "--mode", "transmissive"]],
)
def test_the_exit_code_counts_the_rows_written_with_an_err(tmp_path, command, output_format):
    # The gain config: at 0.1 GHz the point is ok, and at 20 GHz the round
    # trip across 3 m of eps = 4 + 4j overflows, a domain row. One ok row
    # is enough for 0; a file whose every row has an err exits 2.
    gain = [{"eps": 1.0, "thickness_mm": 100.0}, {"eps": [4.0, 4.0], "thickness_mm": 3000.0}]
    doc = _scenario_doc(actual={"layers": gain, "termination": {"kind": "pec"}}, output={"format": output_format})
    for start, tags, status in ((0.1, ["", "domain"], 0), (20.0, ["domain"], 2)):
        doc["sweep"] = {
            "theta_deg": {"start": 0.0, "stop": 0.0, "step": 1.0},
            "freq_ghz": {"start": start, "stop": 20.0, "step": 19.9},
        }
        out = tmp_path / f"gain-{status}.{output_format}"
        assert main(command + ["--config", str(_write_config(tmp_path, doc)), "--out", str(out)]) == status
        text = out.read_text()
        if output_format == "svg":
            assert text.startswith("<svg ") and text.endswith("</svg>\n")
        else:
            assert [line.split(",")[-1] for line in text.splitlines()[1:]] == tags


@pytest.mark.parametrize("command", ["simulate", "synthesize"])
def test_a_fault_at_a_grid_point_exits_3_and_writes_nothing(monkeypatch, tmp_path, capsys, command):
    # an exception that is no PlanemirageError is a fault of the program:
    # it names the point and stops the run instead of becoming an err tag
    real = wavecore.walk_reflections
    bad_k0 = PlaneWave(11e9).k0

    def walk_reflections(walks, k0, _pairs=False):
        if k0 == bad_k0:
            raise ZeroDivisionError("complex division by zero")
        return real(walks, k0, _pairs)

    # the sweep's batch raises, and the first point whose own fold raises names the fault
    for module in (wavecore, sweep):
        monkeypatch.setattr(module, "walk_reflections", walk_reflections)
    out = tmp_path / "sweep.csv"
    assert main([command, "--scenario", "builtin", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "planemirage: internal error at f = 11.0 GHz, theta = 0.0 deg: "
        "ZeroDivisionError: complex division by zero\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("old", [None, b"freq_ghz,theta_deg\n"], ids=["no-file", "old-file"])
@pytest.mark.parametrize("command", ["simulate", "synthesize"])
def test_a_fault_at_the_last_grid_point_leaves_the_out_path_as_it_was(
    monkeypatch, tmp_path, capsys, command, old
):
    # every other row is formed by then; none of them may reach the file
    real_walk, real_folds = sweep.angle_walk, wavecore.walk_reflections
    last_walks = []
    last_k0 = PlaneWave(12e9).k0

    def angle_walk(stack, theta1):
        walk = real_walk(stack, theta1)
        if theta1 == math.radians(80.0):
            last_walks.append(walk)
        return walk

    def walk_reflections(walks, k0, _pairs=False):
        if k0 == last_k0 and any(walk is w for walk in walks for w in last_walks):
            raise ZeroDivisionError("complex division by zero")
        return real_folds(walks, k0, _pairs)

    monkeypatch.setattr(sweep, "angle_walk", angle_walk)
    for module in (wavecore, sweep):
        monkeypatch.setattr(module, "walk_reflections", walk_reflections)
    out = tmp_path / "sweep.csv"
    if old is not None:
        out.write_bytes(old)
    assert main([command, "--scenario", "builtin", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "planemirage: internal error at f = 12.0 GHz, theta = 80.0 deg: ZeroDivisionError"
    )
    assert (out.read_bytes() if out.exists() else None) == old


def test_a_fault_that_only_a_batch_raises_names_its_frequency(monkeypatch, tmp_path, capsys):
    # a batch of the whole frequency raises, but no point's own fold does:
    # the fault is named by its frequency alone
    real = wavecore.walk_reflections
    bad_k0 = PlaneWave(11e9).k0

    def walk_reflections(walks, k0, _pairs=False):
        if k0 == bad_k0 and len(walks) > 1:
            raise ZeroDivisionError("complex division by zero")
        return real(walks, k0, _pairs)

    for module in (wavecore, sweep):
        monkeypatch.setattr(module, "walk_reflections", walk_reflections)
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--scenario", "builtin", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "planemirage: internal error at f = 11.0 GHz: ZeroDivisionError: complex division by zero\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "synthesize"])
def test_an_error_that_stops_a_sweep_leaves_the_old_file(monkeypatch, tmp_path, capsys, command):
    # a PlanemirageError outside the per-point guard stops the sweep at its
    # last frequency, after 20 of its 21 frequencies' rows: exit 1
    real = sweep.PlaneWave

    def plane_wave(frequency, *args):
        if frequency == 12e9:
            raise ValidationError("no wave at 12 GHz")
        return real(frequency, *args)

    monkeypatch.setattr(sweep, "PlaneWave", plane_wave)
    out = tmp_path / "sweep.csv"
    out.write_bytes(b"freq_ghz,theta_deg\n")
    assert main([command, "--scenario", "builtin", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "planemirage: error: no wave at 12 GHz\n"
    assert out.read_bytes() == b"freq_ghz,theta_deg\n"


@pytest.mark.parametrize("command", [["simulate"], ["synthesize", "--mode", "reflective"]])
def test_a_sweep_holds_one_copy_of_its_output(tmp_path, command):
    # rows are streamed into a spool on disk one batch at a time: no row
    # list, no list of line strings and no joined text beside it
    argv = command + ["--scenario", "builtin", "--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 0  # imports and first-use caches are not the sweep's
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (tmp_path / "sweep.csv").stat().st_size


def test_an_svg_sweep_does_not_keep_its_rows(tmp_path):
    # the plot holds the points it draws, read from each row as it streams
    # past, and no list of the rows they came from
    config = _write_config(tmp_path, _svg_doc(*_SVG_GOLDEN_SHA256["simulate"][1]))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "sweep.svg")]
    assert main(argv) == 0  # imports and first-use caches are not the sweep's
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * (tmp_path / "sweep.svg").stat().st_size


def _builtin_stacks_doc(freq_stop):
    """The builtin scenario's stacks and angles, with frequencies from 10 GHz
    to freq_stop in steps of 0.1 GHz."""
    target_layers = [
        {"eps": 1.0, "thickness_mm": 60.0},
        {"eps": [2.1, -0.0006], "thickness_mm": 120.0},
        {"eps": 1.0, "thickness_mm": 120.0},
    ]
    return _scenario_doc(
        target={"layers": target_layers, "termination": {"kind": "open"}},
        sweep={
            "theta_deg": {"start": 0.0, "stop": 80.0, "step": 0.5},
            "freq_ghz": {"start": 10.0, "stop": freq_stop, "step": 0.1},
        },
    )


def test_a_sweeps_memory_does_not_grow_with_its_table(tmp_path):
    # the same 161 angles at 21 and at 168 frequencies: 3,381 and 27,048
    # rows, of which the sweep holds its angle walks and one frequency's two batches
    runs = []
    for name, freq_stop, count in (("small", 12.0, 21), ("large", 26.7, 168)):
        config = _write_config(tmp_path, _builtin_stacks_doc(freq_stop), name=f"{name}.json")
        assert parse_scenario(config).freq_ghz.count == count
        argv = ["synthesize", "--mode", "reflective", "--config", str(config)]
        runs.append(argv + ["--out", str(tmp_path / f"{name}.csv")])
    assert main(runs[0]) == 0  # imports and first-use caches are not the sweep's
    peaks = []
    for argv in runs:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len((tmp_path / "large.csv").read_bytes().splitlines()) == 27049
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("old", [None, b"freq_ghz,theta_deg\n"], ids=["new-target", "old-target"])
def test_a_linked_out_path_stays_a_link_to_the_table(tmp_path, old):
    target, out = tmp_path / "table.csv", tmp_path / "link.csv"
    if old is not None:
        target.write_bytes(old)
    out.symlink_to(target)
    assert main(["simulate", "--scenario", "builtin", "--out", str(out)]) == 0
    assert out.is_symlink() and out.resolve() == target.resolve()
    assert len(target.read_bytes().splitlines()) == 3382


def test_an_existing_out_file_is_written_in_place(tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_bytes(b"freq_ghz,theta_deg\n")
    inode = out.stat().st_ino
    assert main(["simulate", "--scenario", "builtin", "--out", str(out)]) == 0
    assert out.stat().st_ino == inode
    assert len(out.read_bytes().splitlines()) == 3382


@pytest.mark.parametrize("command", ["simulate", "select-cell"])
def test_an_out_path_that_is_a_directory_is_a_write_error(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.mkdir()
    if command == "simulate":
        argv = ["simulate", "--scenario", "builtin"]
    else:
        doc = {"map": "sample", "frequency_ghz": 4.5, "rho_target": [0.2, 0.4]}
        argv = ["select-cell", "--config", str(_write_config(tmp_path, doc))]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"planemirage: error: cannot write {out}: ")
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("output", ["csv", "svg"])
def test_a_spool_that_cannot_be_written_is_a_write_error_that_keeps_the_old_file(
    monkeypatch, tmp_path, capsys, output
):
    import tempfile

    def temporary_file(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    out = tmp_path / f"sweep.{output}"
    out.write_bytes(b"freq_ghz,theta_deg\n")
    config = _write_config(tmp_path, _scenario_doc(output={"format": output}))
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"planemirage: error: cannot write {out}: [Errno {errno.ENOSPC}] No space left on device"
    )
    assert out.read_bytes() == b"freq_ghz,theta_deg\n"


def test_a_fault_in_an_angle_walk_names_the_angle(monkeypatch, tmp_path, capsys):
    real = sweep.angle_walk

    def angle_walk(stack, theta1):
        if theta1 == math.radians(40.0):
            raise OverflowError("math range error")
        return real(stack, theta1)

    monkeypatch.setattr(sweep, "angle_walk", angle_walk)
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--scenario", "builtin", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "planemirage: internal error at theta = 40.0 deg: OverflowError: math range error\n"
    )
    assert not out.exists()


def test_partial_failure_keeps_exit_zero(tmp_path):
    doc = _scenario_doc(target=_degenerate_target_doc(10.0))
    doc["sweep"] = {
        "theta_deg": {"start": 0.0, "stop": 0.5, "step": 0.5},
        "freq_ghz": {"start": 10.0, "stop": 10.0, "step": 0.1},
    }
    config_path = _write_config(tmp_path, doc, name="partial.json")
    out = tmp_path / "partial.csv"
    assert main(["synthesize", "--config", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].endswith(",degenerate-synthesis")
    # the off-pole point synthesized fine (err empty; near the pole the
    # required sheet is huge, so it classifies as needing gain)
    cells = lines[2].split(",")
    assert cells[-1] == ""
    assert cells[-2] in ("0", "1")
    assert cells[6] != ""


def test_thick_lossy_layer_is_a_tagged_point_not_a_crash(tmp_path):
    # 3 m of eps = 4 - 4j: at 20 GHz the round trip underflows to 0, so the
    # terminating sheet is out of reach; at 0.1 GHz it still attenuates
    # the round trip only by about 1e-5
    actual = {
        "layers": [
            {"eps": 1.0, "thickness_mm": 100.0},
            {"eps": [4.0, -4.0], "thickness_mm": 3000.0},
            {"eps": 1.0, "thickness_mm": 100.0},
        ],
        "termination": {"kind": "pec"},
    }
    doc = _scenario_doc(actual=actual)
    doc["sweep"] = {
        "theta_deg": {"start": 0.0, "stop": 0.0, "step": 1.0},
        "freq_ghz": {"start": 0.1, "stop": 20.0, "step": 19.9},
    }
    config_path = _write_config(tmp_path, doc, name="thick.json")
    out = tmp_path / "thick.csv"
    assert main(["synthesize", "--mode", "reflective", "--config", str(config_path), "--out", str(out)]) == 0
    low, high = (line.split(",") for line in out.read_text().splitlines()[1:])
    assert low[-1] == ""
    assert high[0] == "20" and high[-1] == "degenerate-synthesis"
    assert all(math.isfinite(float(cell)) for cell in high[2:6])
    assert high[6:11] == ["", "", "", "", ""]


@pytest.mark.parametrize("role", ["actual", "target"])
@pytest.mark.parametrize("mode", [Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_failed_walk_is_tagged_once(role, mode):
    # the round trip across 3 m of eps = 4 + 4j overflows at 20 GHz, so the
    # stack's walk raises; the point is not synthesized on top of it
    gain = Stack(AIR, (Layer(AIR, 0.1), Layer(Medium(4 + 4j), 3.0)), Pec())
    config = builtin_scenario()
    stacks = {"actual": config.actual, "target": config.target, role: gain}
    axis = SweepAxis(20.0, 20.0, 1.0)
    rows = run_synthesize(ScenarioConfig(stacks["actual"], stacks["target"], mode, _small_axis(), axis))
    assert [r.err for r in rows] == ["domain"] * 3
    assert all(r.rho_req is None and r.aux is None and r.passive is None for r in rows)


@pytest.mark.parametrize(
    "command, tags",
    [
        (["simulate"], "domain"),
        (["synthesize", "--mode", "reflective"], "domain;degenerate-synthesis"),
        (["synthesize", "--mode", "transmissive"], "domain"),
    ],
)
def test_an_interface_sum_past_the_float_range_is_a_tagged_point(tmp_path, capsys, command, tags):
    # at 45 degrees the layer's eta*cos(theta) has parts of about 1.3e308:
    # its sum with air is finite, but abs() of it overflows
    actual = {"layers": [{"eps": [1e-306, -1e-306], "thickness_mm": 1.0}], "termination": {"kind": "pec"}}
    doc = _scenario_doc(actual=actual)
    doc["sweep"] = {
        "theta_deg": {"start": 45.0, "stop": 45.0, "step": 1.0},
        "freq_ghz": {"start": 10.0, "stop": 10.0, "step": 1.0},
    }
    out = tmp_path / "huge-n.csv"
    assert main(command + ["--config", str(_write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    (row,) = (line.split(",") for line in out.read_text().splitlines()[1:])
    assert row[:4] == ["10", "45", "", ""] and row[-1] == tags


@pytest.mark.parametrize(
    "gain_layers",
    [
        # the round trip across 3 m overflows
        [{"eps": 1.0, "thickness_mm": 100.0}, {"eps": [4.0, 4.0], "thickness_mm": 3000.0}],
        # each round trip is finite, the total reflection is not
        [
            {"eps": [4.0, 4.0], "thickness_mm": 500.0},
            {"eps": 1.0, "thickness_mm": 10.0},
            {"eps": [4.0, 4.0], "thickness_mm": 500.0},
        ],
    ],
)
@pytest.mark.parametrize(
    "command",
    [["simulate"], ["synthesize", "--mode", "reflective"], ["synthesize", "--mode", "transmissive"]],
)
def test_gain_medium_overflow_is_a_tagged_point_not_a_crash(tmp_path, gain_layers, command):
    doc = _scenario_doc(actual={"layers": gain_layers, "termination": {"kind": "pec"}})
    doc["sweep"] = {
        "theta_deg": {"start": 0.0, "stop": 0.0, "step": 1.0},
        "freq_ghz": {"start": 0.1, "stop": 20.0, "step": 19.9},
    }
    config_path = _write_config(tmp_path, doc, name="gain.json")
    out = tmp_path / "gain.csv"
    assert main(command + ["--config", str(config_path), "--out", str(out)]) == 0
    low, high = (line.split(",") for line in out.read_text().splitlines()[1:])
    assert low[-1] == ""
    assert high[0] == "20" and high[2:4] == ["", ""]
    # only the sandwich walks: its fold fails, and synthesis is still tried
    sandwich = len(gain_layers) == 3
    synthesized = sandwich and command != ["simulate"]
    assert high[-1] == ("domain;degenerate-synthesis" if synthesized else "domain")
    assert all(math.isfinite(float(cell)) for cell in low[:-1] + high[4:6])


@pytest.mark.parametrize(
    "command",
    [["simulate"], ["synthesize", "--mode", "reflective"], ["synthesize", "--mode", "transmissive"]],
)
def test_a_round_trip_whose_phase_overflows_is_a_tagged_point(tmp_path, capsys, command):
    # 2*pi*f in Hz is finite at 1e288 GHz, but k0 times the round trip across
    # 1e23 mm of air is not, and cmath.exp of that phase raises ValueError
    actual = {"layers": [{"eps": 1.0, "thickness_mm": 1e23}], "termination": {"kind": "pec"}}
    doc = _scenario_doc(actual=actual)
    doc["sweep"] = {
        "theta_deg": {"start": 0.0, "stop": 0.0, "step": 1.0},
        "freq_ghz": {"start": 1e288, "stop": 1e288, "step": 1.0},
    }
    out = tmp_path / "phase.csv"
    assert main(command + ["--config", str(_write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    (row,) = (line.split(",") for line in out.read_text().splitlines()[1:])
    assert row[:4] == ["1e+288", "0", "", ""] and row[-1] == "domain"
    # g_tgt is libm's cos and sin of a phase of about 4e286 rad: present, digits not pinned
    assert all(math.isfinite(float(cell)) for cell in row[4:6])
    assert row[6:-1] == [""] * (len(row) - 7)
