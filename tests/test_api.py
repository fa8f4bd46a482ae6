"""Package surface: what each command imports, the lazily resolved names,
and the value semantics shared by every immutable type."""

import argparse
import ast
import cmath
import copy
import gc
import importlib
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import planemirage
from planemirage._value import Value
from planemirage.sweep import ScenarioConfig, SweepAxis
from planemirage.companions import (
    RadialTransform,
    StripProfile,
    grating_angle,
    pb_phase,
    strip_height,
)
from planemirage.errors import (
    ConfigError,
    DuplicateStateError,
    EmptyMapError,
    InvalidMediumError,
    ValidationError,
)
from planemirage.synthesis import IllusionProblem, Mode
from planemirage.unitcell import CodingSet, ReflectionMap, UnitCellRecord, select_state
from planemirage.wavecore import (
    AIR,
    ETA0,
    Layer,
    Medium,
    Open,
    Pec,
    PlaneWave,
    Sheet,
    Stack,
)

SRC = Path(planemirage.__file__).resolve().parents[1]

# Modules a sweep never needs. inspect comes with dataclasses and ast.
UNNEEDED = {"dataclasses", "inspect", "json", "planemirage.unitcell", "planemirage.companions"}

_FOOTPRINT = """\
import sys
bare = set(sys.modules)

def added():
    return sorted(set(sys.modules) - bare)

steps = {}
import planemirage.sweep
steps["sweep"] = added()
import planemirage.cli as cli
steps["import"] = added()
cli.builtin_scenario()
steps["builtin"] = added()
commands = {
    "simulate": ["simulate", "--scenario", "builtin", "--out", "sim.csv"],
    "grating": ["companion", "grating", "--config", "grating.json", "--out", "grating.csv"],
    "svg": ["simulate", "--config", "svg.json", "--out", "sim.svg"],
    "synthesize": ["synthesize", "--scenario", "builtin", "--out", "syn.csv"],
}
for name in sys.argv[1:]:
    steps[name] = (cli.main(commands[name]), added())
import planemirage
listed = "CodingSet" in dir(planemirage)
unloaded = "planemirage.unitcell" not in sys.modules
steps["lazy"] = (listed, unloaded, planemirage.CodingSet.__module__, "planemirage.unitcell" in sys.modules)
print(repr(steps))
"""


def _footprint(tmp_path, order, flags=()):
    """The modules each step added to a fresh interpreter, run with flags;
    the commands run in order, each a key of the script's commands."""
    (tmp_path / "grating.json").write_text('{"wavelength_mm": 30.0, "period_mm": 60.0}')
    stack = {"layers": [{"eps": 2.0, "thickness_mm": 10.0}], "termination": {"kind": "pec"}}
    sweep = {
        "theta_deg": {"start": 0, "stop": 10, "step": 5},
        "freq_ghz": {"start": 10, "stop": 10, "step": 1},
    }
    doc = {"actual": stack, "target": stack, "sweep": sweep, "output": {"format": "svg"}}
    (tmp_path / "svg.json").write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", _FOOTPRINT, *order],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


# The synthesis code, which only a synthesis loads.
SYNTHESIS = {"planemirage.synthesis", "planemirage.gstc"}


def _check_builtin_path(steps):
    """Import, the builtin scenario and a builtin CSV simulate load nothing
    a sweep never needs, no config reader, no table command, no SVG plot and
    no synthesis code. A --config SVG simulate, run before any synthesize,
    loads no synthesis code either; a synthesize loads it."""
    assert "planemirage.cli" in steps["import"]
    rc, after_simulate = steps["simulate"]
    assert rc == 0
    for step in (steps["import"], steps["builtin"], after_simulate):
        assert UNNEEDED.isdisjoint(step)
        assert {"planemirage.config", "planemirage.tables", "planemirage.svg"}.isdisjoint(step)
        assert SYNTHESIS.isdisjoint(step)
    rc, after_svg = steps["svg"]
    assert rc == 0 and SYNTHESIS.isdisjoint(after_svg)
    rc, after_synthesize = steps["synthesize"]
    assert rc == 0 and SYNTHESIS <= set(after_synthesize)
    # dir() lists a lazy name before its module loads; first use loads it
    assert steps["lazy"] == (True, True, "planemirage.unitcell", True)


def test_a_sweep_imports_only_what_it_runs(tmp_path):
    steps = _footprint(tmp_path, ["simulate", "svg", "grating", "synthesize"])
    # the sweep library is usable without the command line
    assert "planemirage.sweep" in steps["sweep"]
    assert {"argparse", "planemirage.cli"}.isdisjoint(steps["sweep"])
    _check_builtin_path(steps)
    # a --config sweep reads its config, and an SVG sweep loads the SVG plot
    rc, after_svg = steps["svg"]
    assert rc == 0
    assert {"planemirage.config", "json", "planemirage.svg"} <= set(after_svg)
    assert "planemirage.tables" not in after_svg
    rc, after_grating = steps["grating"]
    assert rc == 0
    assert {"planemirage.tables", "planemirage.companions"} <= set(after_grating)
    assert "planemirage.unitcell" not in after_grating


def test_a_bare_interpreter_sweep_imports_only_what_it_runs(tmp_path):
    # -S keeps site's .pth files out, which may preload typing and more
    steps = _footprint(tmp_path, ["simulate", "grating", "svg", "synthesize"], flags=["-S"])
    _check_builtin_path(steps)
    assert "typing" not in steps["simulate"][1]
    # a table command loads its table and config reader, not the SVG plot
    rc, after_grating = steps["grating"]
    assert rc == 0
    assert {"planemirage.tables", "planemirage.config", "planemirage.companions", "json"} <= set(
        after_grating
    )
    assert {"planemirage.unitcell", "planemirage.svg"}.isdisjoint(after_grating)
    rc, after_svg = steps["svg"]
    assert rc == 0 and "planemirage.svg" in after_svg
    # a path stays the str it was given, so no command loads pathlib
    for name in ("simulate", "grating", "svg"):
        assert "pathlib" not in steps[name][1], name


def test_cli_names_the_library_functions_it_runs():
    from planemirage import cli, config, sweep

    assert cli.parse_scenario is config.parse_scenario
    assert cli.builtin_scenario is sweep.builtin_scenario
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


def test_the_parser_lists_every_table_command_and_submode():
    from planemirage import cli, tables

    (commands,) = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    listed = {}
    for name, parser in commands.choices.items():
        if name not in ("simulate", "synthesize"):
            submodes = [a.choices for a in parser._actions if a.dest == "submode"]
            listed[name] = list(submodes[0]) if submodes else None
    assert listed == {
        name: list(table) if isinstance(table, dict) else None
        for name, table in tables._TABLE_COMMANDS.items()
    }


def test_every_public_name_resolves_to_its_submodule_object():
    modules = [
        importlib.import_module(f"planemirage.{m}")
        for m in ("errors", "wavecore", "gstc", "synthesis", "unitcell", "companions")
    ]
    listed = dir(planemirage)
    for name in planemirage.__all__:
        value = getattr(planemirage, name)
        assert any(vars(m).get(name) is value for m in modules), name
        assert name in listed, name


def _bare(script):
    """The literal a script prints in a fresh interpreter run with -S."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


_ADDED_BY = "import sys; bare = set(sys.modules); {}; print(sorted(set(sys.modules) - bare))"


def test_a_bare_import_loads_no_submodule():
    assert _bare(_ADDED_BY.format("import planemirage")) == ["planemirage"]
    # the submodules re-exporting names still resolve as attributes
    resolved = "import planemirage, sys; print([getattr(planemirage, m).__name__ for m in {!r}])"
    modules = list(planemirage._EXPORTS)
    assert _bare(resolved.format(modules)) == [f"planemirage.{m}" for m in modules]


@pytest.mark.parametrize("module", sorted(planemirage._EXPORTS))
def test_the_first_use_of_a_name_loads_only_its_submodule(module):
    name = planemirage._EXPORTS[module][0]
    used = _bare(_ADDED_BY.format(f"import planemirage; planemirage.{name}"))
    assert used == _bare(_ADDED_BY.format(f"import planemirage.{module}"))
    assert f"planemirage.{module}" in used


def test_a_star_import_binds_every_public_name():
    names = {}
    exec("from planemirage import *", names)
    del names["__builtins__"]
    assert len(names) == len(planemirage.__all__) == 55
    assert all(names[name] is getattr(planemirage, name) for name in planemirage.__all__)
    # each name is listed under one submodule only
    assert sum(map(len, planemirage._EXPORTS.values())) == 55


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        planemirage.no_such_name  # noqa: B018
    assert not hasattr(planemirage, "no_such_name")
    with pytest.raises(ImportError):
        from planemirage import no_such_name  # noqa: F401


# Runs the module named by its first argument as python -m does, with the
# rest as its arguments, and prints the freeze count that exit sees.
_AT_EXIT = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"freeze count {gc.get_freeze_count()}", file=sys.stderr))
runpy.run_module(sys.argv.pop(1), run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("module", ["planemirage", "planemirage.cli"])
@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        pytest.param(["simulate", "--scenario", "builtin", "--out", "out.csv"], 0, "", id="ok"),
        pytest.param(
            ["simulate", "--config", "nope.json", "--out", "out.csv"], 1,
            "planemirage: config error: cannot read config nope.json: ", id="config-error",
        ),
        pytest.param(
            ["simulate", "--no-such-option"], 2,
            "planemirage: error: unrecognized arguments: --no-such-option", id="unknown-option",
        ),
    ],
)
def test_a_process_exits_with_the_commands_code_and_a_frozen_heap(tmp_path, module, argv, code, stderr):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _AT_EXIT, module, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == code, done.stderr
    *lines, last = done.stderr.splitlines()
    assert stderr in "\n".join(lines) and "Traceback" not in done.stderr
    assert int(last.removeprefix("freeze count ")) > 0
    assert (tmp_path / "out.csv").exists() is (code == 0)


def test_main_leaves_the_heap_unfrozen(tmp_path):
    from planemirage import cli

    config = tmp_path / "grating.json"
    config.write_text('{"wavelength_mm": 30.0, "period_mm": 60.0}')
    before = gc.get_freeze_count()
    argv = ["companion", "grating", "--config", str(config), "--out", str(tmp_path / "grating.csv")]
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == before


def test_every_way_to_start_a_process_calls_one_entry():
    main_py = ast.parse((SRC / "planemirage" / "__main__.py").read_text(encoding="utf-8"))
    (imported,) = (node for node in main_py.body if isinstance(node, ast.ImportFrom))
    assert (imported.module, imported.level) == ("cli", 1)
    (called,) = (alias.name for alias in imported.names)
    assert [ast.unparse(node) for node in main_py.body if isinstance(node, ast.Expr)] == [f"{called}()"]
    # cli's own __main__ guard calls the same function and nothing else
    cli_py = ast.parse((SRC / "planemirage" / "cli.py").read_text(encoding="utf-8"))
    (guard,) = (node for node in cli_py.body if isinstance(node, ast.If))
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == [f"{called}()"]
    # the installed script, read as text: tomllib is 3.11 and later
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n", 1)[0]
    assert scripts == f'planemirage = "planemirage.cli:{called}"'


def _stack(eps=3.9 - 0.08j, termination=None):
    return Stack(AIR, (Layer(Medium(eps), 0.06),), termination or Pec())


def _record(r=27.0, phase=0.0):
    return UnitCellRecord(4.5, r, 0.35, 0.5 * cmath.exp(1j * phase))


# type: (make one value, make a value with other fields, a call its
# constructor rejects, the typed error it raises). Pec has no fields and
# nothing to reject.
VALUES = {
    Medium: (lambda: Medium(2.1 - 0.1j, 1.5), lambda: Medium(2.1), lambda: Medium(math.nan), InvalidMediumError),
    Layer: (lambda: Layer(AIR, 0.1), lambda: Layer(AIR, 0.2), lambda: Layer(AIR, -1.0), ValidationError),
    Pec: (Pec, None, None, None),
    Open: (lambda: Open(Medium(2.0)), lambda: Open(), None, None),
    Sheet: (lambda: Sheet(0.5j), lambda: Sheet(-0.5j), lambda: Sheet(complex(math.inf, 0.0)), ValidationError),
    Stack: (_stack, lambda: _stack(termination=Open()), lambda: Stack(AIR, (), Pec()), ValidationError),
    PlaneWave: (
        lambda: PlaneWave(10e9, 0.3),
        lambda: PlaneWave(10e9, 0.4),
        lambda: PlaneWave(10e9, math.pi / 2),
        ValidationError,
    ),
    IllusionProblem: (
        lambda: IllusionProblem(_stack(), _stack(2.1), PlaneWave(10e9), Mode.REFLECTIVE),
        lambda: IllusionProblem(_stack(), _stack(2.1), PlaneWave(10e9), Mode.TRANSMISSIVE),
        lambda: IllusionProblem(_stack(), _stack(2.1), PlaneWave(10e9), "reflective"),
        ValidationError,
    ),
    SweepAxis: (
        lambda: SweepAxis(0.0, 1.0, 0.5),
        lambda: SweepAxis(0.0, 2.0, 0.5),
        lambda: SweepAxis(0.0, 1.0, 0.0),
        ConfigError,
    ),
    ScenarioConfig: (
        lambda: ScenarioConfig(_stack(), _stack(2.1), None, SweepAxis(0, 80, 1), SweepAxis(10, 12, 1)),
        lambda: ScenarioConfig(_stack(), _stack(2.1), Mode.REFLECTIVE, SweepAxis(0, 80, 1), SweepAxis(10, 12, 1)),
        lambda: ScenarioConfig(_stack(), _stack(2.1), None, SweepAxis(0, 85, 1), SweepAxis(10, 12, 1)),
        ConfigError,
    ),
    UnitCellRecord: (_record, lambda: _record(r=30.0), lambda: _record(r=-1.0), ValidationError),
    ReflectionMap: (
        lambda: ReflectionMap((_record(),)),
        lambda: ReflectionMap((_record(), _record(r=30.0))),
        lambda: ReflectionMap(()),
        EmptyMapError,
    ),
    CodingSet: (
        lambda: CodingSet(1, (_record(), _record(r=30.0, phase=math.pi)), (0.0, math.pi)),
        lambda: CodingSet(1, (_record(), _record(r=33.0, phase=math.pi)), (0.0, math.pi)),
        lambda: CodingSet(0, (), ()),
        ValidationError,
    ),
    RadialTransform: (
        lambda: RadialTransform(0.05, 0.3, 3.0),
        lambda: RadialTransform(0.05, 0.3, 2.0),
        lambda: RadialTransform(0.05, 0.3, 0.5),
        ValidationError,
    ),
    StripProfile: (
        lambda: StripProfile(0.8, 0.012),
        lambda: StripProfile(0.8, 0.012, -1),
        lambda: StripProfile(0.8, 0.012, 2),
        ValidationError,
    ),
}

TYPES = list(VALUES)


def test_the_table_covers_every_value_type():
    assert len(TYPES) == 15 and set(TYPES) == set(Value.__subclasses__())


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
def test_equal_fields_give_equal_values_and_hashes(kind):
    make, make_other, _, _ = VALUES[kind]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    if make_other is not None:
        assert make_other() != a and hash(make_other()) != hash(a)


def test_values_of_different_types_are_never_equal():
    values = [VALUES[kind][0]() for kind in TYPES]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) is (i == j)
    # nor equal to the plain tuple of their fields
    assert Sheet(0.5) != (0.5 + 0j,) and Pec() != ()


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
def test_values_are_immutable(kind):
    value = VALUES[kind][0]()
    for name in kind._fields or ("anything",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == VALUES[kind][0]()


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
def test_repr_names_the_fields(kind):
    value = VALUES[kind][0]()
    text = repr(value)
    assert text.startswith(f"{kind.__name__}(")
    for name in kind._fields:
        assert f"{name}={getattr(value, name)!r}" in text


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
def test_copy_and_pickle_round_trip(kind):
    value = VALUES[kind][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is kind and twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
def test_a_value_refuses_a_state_of_the_wrong_length(kind):
    # an unpickled state with one field too many writes no field
    value = VALUES[kind][0]()
    with pytest.raises(TypeError, match=rf"^{kind.__qualname__}\(\) takes {len(kind._fields)} values$"):
        value.__setstate__(value.__getstate__() + (None,))
    assert value == VALUES[kind][0]()


@pytest.mark.parametrize("kind", [t for t in TYPES if VALUES[t][2] is not None], ids=lambda t: t.__name__)
def test_constructors_raise_their_typed_errors(kind):
    _, _, bad, error = VALUES[kind]
    with pytest.raises(error):
        bad()


def test_constructors_normalize_and_check_every_field():
    assert Medium(2).eps_r == 2 + 0j and type(Medium(2).mu_r) is complex
    assert type(Layer(AIR, 1).thickness) is float
    assert Open().half_space == AIR
    assert type(Stack(AIR, [Layer(AIR, 0.1)], Pec()).layers) is tuple
    with pytest.raises(ValidationError):
        Stack(AIR, (Layer(AIR, 0.1),), "pec")
    with pytest.raises(ValidationError):
        PlaneWave(10e9, 0.0, "TE")
    with pytest.raises(DuplicateStateError):
        ReflectionMap((_record(), _record()))
    assert ReflectionMap((_record(),)).frequencies == (4.5,)
    assert StripProfile(0.8, 0.012, -1.0).sigma == -1


def test_an_illusion_problem_keeps_its_cached_walks():
    problem = VALUES[IllusionProblem][0]()
    gamma = problem.gamma_i
    assert problem.gamma_i is gamma and problem.actual_walk is problem.actual_walk
    # the cache is not a field: the problem still equals a fresh one
    assert problem == VALUES[IllusionProblem][0]()


def test_a_medium_keeps_its_wave_constants_outside_its_fields():
    medium, fresh = VALUES[Medium][0](), VALUES[Medium][0]()
    s, eta = medium.wave_constants
    assert medium.wave_constants is medium.wave_constants
    assert s == cmath.sqrt(medium.eps_r * medium.mu_r)
    assert eta == ETA0 * cmath.sqrt(medium.mu_r / medium.eps_r)
    # reading the cache changes nothing a value shows
    assert medium == fresh and hash(medium) == hash(fresh) and repr(medium) == repr(fresh)
    for twin in (copy.copy(medium), copy.deepcopy(medium), pickle.loads(pickle.dumps(medium))):
        assert type(twin) is Medium and twin == fresh and hash(twin) == hash(fresh)
        assert "wave_constants" not in vars(twin)  # a copy forms its own on first use
        assert twin.wave_constants == (s, eta)
    for name in ("eps_r", "mu_r", "wave_constants"):
        with pytest.raises(AttributeError):
            setattr(medium, name, 1.0)
    assert medium == fresh and medium.wave_constants == (s, eta)


# The finite and positive checks the value types and their functions share:
# (a call that fails one, the exact message of its ValidationError).
_STRIP = StripProfile(0.8, 0.012)
SHARED_CHECKS = {
    "PlaneWave.frequency": (lambda: PlaneWave(0, 0.3), "frequency must be positive, got 0.0"),
    "UnitCellRecord.f_ghz": (lambda: UnitCellRecord(0, 27.0, 0.35, 0.5), "frequency must be positive, got 0.0"),
    "UnitCellRecord.r_ohm": (lambda: _record(r=-1), "resistance must be positive, got -1.0"),
    "UnitCellRecord.c_pf": (
        lambda: UnitCellRecord(4.5, 27.0, math.nan, 0.5),
        "capacitance must be positive, got nan",
    ),
    "UnitCellRecord.rho": (
        lambda: UnitCellRecord(4.5, 27.0, 0.35, complex(math.nan, 0.0)),
        "reflection must be finite, got (nan+0j)",
    ),
    "RadialTransform.r1": (lambda: RadialTransform(0, 0.3, 3.0), "r1 must be positive, got 0.0"),
    "RadialTransform.r2": (lambda: RadialTransform(0.05, math.inf, 3.0), "r2 must be positive, got inf"),
    "RadialTransform.q": (lambda: RadialTransform(0.05, 0.3, -2), "q must be positive, got -2.0"),
    "StripProfile.amplitude": (lambda: StripProfile(0, 0.012), "amplitude must be positive, got 0.0"),
    "StripProfile.period": (lambda: StripProfile(0.8, -0.012), "period must be positive, got -0.012"),
    "grating_angle.wavelength": (lambda: grating_angle(1, 0, 0.06), "wavelength must be positive, got 0.0"),
    "grating_angle.period": (lambda: grating_angle(1, 0.03, math.inf), "period must be positive, got inf"),
    "Sheet.rho": (lambda: Sheet(complex(math.inf, 0.0)), "sheet reflection must be finite, got (inf+0j)"),
    "select_state.rho_target": (
        lambda: select_state(ReflectionMap((_record(),)), 4.5, complex(0.0, math.inf)),
        "rho_target must be finite, got infj",
    ),
    "strip_height.x": (lambda: strip_height(_STRIP, math.inf), "x must be finite, got inf"),
    "pb_phase.x": (lambda: pb_phase(_STRIP, -math.inf), "x must be finite, got -inf"),
}


@pytest.mark.parametrize("site", list(SHARED_CHECKS))
def test_shared_checks_keep_their_messages(site):
    call, message = SHARED_CHECKS[site]
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is ValidationError and str(info.value) == message


def test_only_the_value_base_writes_fields():
    """No module but _value bypasses a value's refusal to assign."""
    for path in sorted((SRC / "planemirage").glob("*.py")):
        if path.name == "_value.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__":
                target = node.value
                assert not (isinstance(target, ast.Name) and target.id == "object"), (
                    f"{path.name}:{node.lineno} writes a field with object.__setattr__"
                )
