"""CLI: config parsing, sweep tables, emission determinism, exit codes."""

import hashlib
import json
import math

import pytest

from planemirage.cli import (
    ScenarioConfig,
    SweepAxis,
    SweepRow,
    _cells,
    _error_tag,
    builtin_scenario,
    emit,
    main,
    parse_scenario,
    run_simulate,
    run_synthesize,
)
from planemirage.errors import (
    ConfigError,
    DegenerateInterfaceError,
    DegenerateSynthesisError,
    EvanescentOrderError,
    PlanemirageError,
    ResonantSingularityError,
)
from planemirage import cli, gstc, synthesis, wavecore
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
    chain_reflection,
    chain_segments,
    fold_reflection,
)

from oracles import chain_matrix, segment_triples

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
    with pytest.raises(ConfigError):
        ScenarioConfig(
            config.actual, config.target, None, config.theta_deg, config.freq_ghz, output_format="pdf"
        )


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
    assert _error_tag(DegenerateSynthesisError("x")) == "degenerate-synthesis"
    assert _error_tag(ResonantSingularityError("x")) == "resonant-singularity"
    assert _error_tag(EvanescentOrderError("x")) == "evanescent-order"


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


@pytest.mark.parametrize("stacks", ["builtin", "deep"])
@pytest.mark.parametrize("mode", [None, Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_sweeps_walk_each_stack_once_per_angle(monkeypatch, stacks, mode):
    # one wave state per layer, plus the half-space behind an Open
    # termination, at each angle and not again at each frequency
    actual, target = (_deep_stack(9), _deep_stack(12))
    if stacks == "builtin":
        actual, target = builtin_scenario().actual, builtin_scenario().target
    config = ScenarioConfig(actual, target, mode, _small_axis(), SweepAxis(10.0, 10.1, 0.1))
    calls = []
    real = wavecore.layer_wave_state

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(wavecore, "layer_wave_state", counted)
    rows = run_simulate(config) if mode is None else run_synthesize(config)
    assert [r.err for r in rows] == [""] * 6
    per_angle = sum(len(s.layers) + isinstance(s.termination, Open) for s in (actual, target))
    assert len(calls) == len(config.theta_deg.values()) * per_angle


@pytest.mark.parametrize("mode", [Mode.REFLECTIVE, Mode.TRANSMISSIVE])
def test_a_synthesis_sweep_describes_each_sheet_once_per_point(monkeypatch, mode):
    # the sheet impedance serves both the reflective eta_n and the passivity verdict
    config = builtin_scenario()
    config = ScenarioConfig(config.actual, config.target, mode, _small_axis(), SweepAxis(10.0, 10.1, 0.1))
    calls = []
    real = gstc.impedance_from_reflection

    def counted(*args):
        calls.append(None)
        return real(*args)

    for module in (cli, synthesis):
        if hasattr(module, "impedance_from_reflection"):
            monkeypatch.setattr(module, "impedance_from_reflection", counted)
    rows = run_synthesize(config)
    assert [r.err for r in rows] == [""] * 6
    assert 0 < len(calls) <= len(rows)


def _per_point_row(actual, target, mode, f_ghz, theta_deg):
    """The row a sweep owes one grid point, from the per-point API alone:
    the actual stack's chain_segments and fold, the target's Gamma_i, then
    synthesize unless one of those two raised."""
    wave = PlaneWave(f_ghz * 1e9, math.radians(theta_deg))
    problem = IllusionProblem(actual, target, wave, mode or Mode.REFLECTIVE)
    errs = []
    walk = g_act = g_tgt = rho = aux = passive = None
    try:
        walk = problem.actual_walk
        g_act = fold_reflection(*walk)
    except PlanemirageError as exc:
        errs.append(_error_tag(exc))
    try:
        g_tgt = problem.gamma_i
    except PlanemirageError as exc:
        errs.append(_error_tag(exc))
    if mode and walk is not None and g_tgt is not None:
        try:
            rho, aux, passive = synthesize(problem)
        except PlanemirageError as exc:
            errs.append(_error_tag(exc))
    return SweepRow(f_ghz, theta_deg, g_act, g_tgt, rho, aux, passive, ";".join(errs))


def _sweep_matches_per_point_api(actual, target, mode, freq_axis):
    config = ScenarioConfig(actual, target, mode, _small_axis(), freq_axis)
    rows = run_simulate(config) if mode is None else run_synthesize(config)
    assert rows == [_per_point_row(actual, target, mode, r.freq_ghz, r.theta_deg) for r in rows]
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

    monkeypatch.setattr(wavecore, "angle_walk", angle_walk)
    monkeypatch.setattr(cli, "angle_walk", angle_walk)
    rows = _sweep_matches_per_point_api(config.actual, config.target, mode, SweepAxis(10.0, 10.1, 0.1))
    assert [r.err for r in rows] == ["", "degenerate-interface", ""] * 2


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
    emit(rows, "simulate", "csv", out)
    text = out.read_bytes().decode("utf-8")
    assert text.splitlines() == [
        _SIM_HEADER,
        "10,0,0.5,-0.25,-1,0,",
        "10,0.5,,,,,resonant-singularity",
    ]
    assert text.endswith("\n")
    emit(rows, "simulate", "csv", tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()


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
    kind = "simulate" if mode is None else f"synthesize-{mode.value}"
    out = tmp_path / "table.csv"
    emit(rows, kind, "csv", out)

    def line(r):
        values = [r.freq_ghz, r.theta_deg]
        for value in (r.g_act, r.g_tgt) + (() if mode is None else (r.rho_req, r.aux)):
            values += [None, None] if value is None else [value]  # a missing complex: two cells
        return ",".join(_cells(values + ([] if mode is None else [r.passive]) + [r.err]))

    assert out.read_text().split("\n")[1:] == [line(r) for r in rows] + [""]


def test_csv_empty_table_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit([], "synthesize-reflective", "csv", out)
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
    emit(rows, "synthesize-reflective", "svg", out)
    text = out.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 6  # three series in each of two panels
    emit(rows, "synthesize-reflective", "svg", tmp_path / "plot2.svg")
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
    z2_1 = chain_segments(shell, wave)[0][0][1]
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
