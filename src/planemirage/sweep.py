"""Scenario sweeps, the library behind simulate and synthesize; no argparse.

A ScenarioConfig, from builtin_scenario or planemirage.config.parse_scenario,
holds two stacks, a mode and the (theta, f) grid in SI units, refused
before its first point if it would leave the float range, an axis would
have more than MAX_AXIS_POINTS points, or its angles times the layers of
both stacks would be more than MAX_LAYER_ANGLES walk layers to hold.
run_simulate and run_synthesize return SweepRows from one loop that walks
each stack once per angle and, at each frequency, folds the actual walks
in one wavecore.walk_reflections call and the target walks in a second;
run_synthesize also plans the synthesis of each angle's actual walk once
(synthesis.sheet_plan) and takes the plan's step at every point, where a
transmissive batch holds the plans' walks of layers 2..N and the step
also gives the actual Gamma. A point with no error pays for its share of
the batches and its step alone; a point where a walk, a fold or the step
failed is tagged from its batch entries. The loop yields each row as its
point is done, for planemirage.output.emit to write. Synthesis code is
loaded only for a synthesis.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterator

from ._value import Value
from .errors import ConfigError, DomainError, PlanemirageError
from .wavecore import (
    AIR,
    Layer,
    Medium,
    Mode,
    Open,
    Pec,
    PlaneWave,
    Stack,
    angle_walk,
    walk_reflections,
)

_GRID_NUDGE = 1e-9  # absorbs float noise in (stop - start)/step
# The most points one axis may have. A sweep holds every angle's walks and
# both axes' values in lists, so an axis whose point count is finite but
# astronomically large would exhaust memory instead of being refused; this
# is about 3,000 times the 321 angles of a dense grid.
MAX_AXIS_POINTS = 10**6
# The most walk layers a sweep may hold, angles times the layers of both
# stacks: each angle's two walks and its synthesis plan are kept until the
# last row. At the limit, one layer per stack in reflective mode holds the
# most, 170 MiB under tracemalloc on Python 3.11; the dense grid holds
# 1,926 walk layers and the deep-stack walls 1,848.
MAX_LAYER_ANGLES = 4 * 10**5


class SweepAxis(Value):
    __slots__ = ("start", "stop", "step")

    def __init__(self, start: float, stop: float, step: float) -> None:
        start, stop, step = values = float(start), float(stop), float(step)
        for name, v in zip(self._fields, values):
            if not math.isfinite(v):
                raise ConfigError(f"sweep {name} must be finite, got {v!r}")
        if step <= 0.0:
            raise ConfigError(f"sweep step must be > 0, got {step}")
        if start > stop:
            raise ConfigError(f"sweep start {start} exceeds stop {stop}")
        if not math.isfinite((stop - start) / step):
            raise ConfigError(f"sweep step {step} gives a point count that is not finite")
        super().__init__(*values)
        if self.count > MAX_AXIS_POINTS:
            raise ConfigError(f"sweep step {step} gives more than {MAX_AXIS_POINTS:,} points")

    @property
    def count(self) -> int:
        """The number of grid points, start included, stop where the step meets it."""
        return math.floor((self.stop - self.start) / self.step + _GRID_NUDGE) + 1

    def values(self) -> list[float]:
        return [self.start + i * self.step for i in range(self.count)]


class ScenarioConfig(Value):
    __slots__ = (
        "actual", "target", "mode", "theta_deg", "freq_ghz", "output_format", "output_path"
    )

    def __init__(
        self,
        actual: Stack,
        target: Stack,
        mode: Mode | None,
        theta_deg: SweepAxis,
        freq_ghz: SweepAxis,
        output_format: str = "csv",
        output_path: str | None = None,
    ) -> None:
        if theta_deg.stop > 80.0:
            raise ConfigError(f"theta sweep must stop at 80 degrees or below, got {theta_deg.stop}")
        if theta_deg.start < 0.0:
            raise ConfigError(f"theta sweep must start at 0 or above, got {theta_deg.start}")
        if freq_ghz.start <= 0.0:
            raise ConfigError(f"frequencies must be positive, got {freq_ghz.start}")
        # 2*pi*f in Hz, which PlaneWave.k0 forms first, at the last grid frequency
        f_last = freq_ghz.start + (freq_ghz.count - 1) * freq_ghz.step
        if not math.isfinite(2.0 * math.pi * (f_last * 1e9)):
            raise ConfigError(f"freq_ghz grid ends at {f_last} GHz, where 2*pi*f in Hz is not finite")
        layer_angles = theta_deg.count * (len(actual.layers) + len(target.layers))
        if layer_angles > MAX_LAYER_ANGLES:
            raise ConfigError(
                f"sweep.theta_deg: {theta_deg.count:,} angles times {len(actual.layers)} + "
                f"{len(target.layers)} stack layers is more than the {MAX_LAYER_ANGLES:,} "
                "walk layers a sweep may hold"
            )
        if mode is not None and not isinstance(mode, Mode):
            raise ConfigError(f"mode must be a Mode or None, got {mode!r}")
        if output_format not in ("csv", "svg"):
            raise ConfigError(f"output format must be csv or svg, got {output_format!r}")
        super().__init__(actual, target, mode, theta_deg, freq_ghz, output_format, output_path)


# freq_ghz and theta_deg are floats; g_act, g_tgt, rho_req and aux (the
# normalized impedance or chi_e, by mode) complex or None; passive a bool or
# None; err a str. A collections.namedtuple, as typing.NamedTuple would load
# typing on every command.
SweepRow = namedtuple(
    "SweepRow",
    ("freq_ghz", "theta_deg", "g_act", "g_tgt", "rho_req", "aux", "passive", "err"),
    defaults=(None, None, None, ""),
)
SweepRow.__doc__ = """One grid point; None fields were not computed (see err). The sweep
    yields plain tuples in this field order, and the functions that return
    rows wrap them as SweepRow."""


def builtin_scenario() -> ScenarioConfig:
    """Bundled demonstration: a lossy FR4 slab over a conducting wall,
    to be disguised as a Teflon slab over open air."""
    actual = Stack(
        incident_medium=AIR,
        layers=(
            Layer(AIR, 0.120),
            Layer(Medium(3.9 - 0.08j), 0.060),
            Layer(AIR, 0.120),
        ),
        termination=Pec(),
    )
    target = Stack(
        incident_medium=AIR,
        layers=(
            Layer(AIR, 0.060),
            Layer(Medium(2.1 - 0.0006j), 0.120),
            Layer(AIR, 0.120),
        ),
        termination=Open(AIR),
    )
    return ScenarioConfig(
        actual=actual,
        target=target,
        mode=Mode.REFLECTIVE,
        theta_deg=SweepAxis(0.0, 80.0, 0.5),
        freq_ghz=SweepAxis(10.0, 12.0, 0.1),
    )


# ------------------------------------------------------------------- sweeps


def _angle_walk(stack: Stack, theta: float):
    """The stack's angle walk at theta, or the error the walk raised."""
    try:
        return angle_walk(stack, theta)
    except PlanemirageError as exc:
        return exc.with_traceback(None)


class GridPointFault(Exception):
    """A sweep point raised an exception that is not a PlanemirageError: a
    fault of the program, not of the point's input, so the sweep stops
    instead of tagging the point. f_ghz is None when the angle walk raised,
    and theta_deg is None when a frequency's batch raised and no walk of
    it, folded alone, raised again."""

    def __init__(self, f_ghz: float | None, theta_deg: float | None, exc: Exception) -> None:
        where = []
        if f_ghz is not None:
            where.append(f"f = {f_ghz!r} GHz")
        if theta_deg is not None:
            where.append(f"theta = {theta_deg!r} deg")
        super().__init__(f"{', '.join(where)}: {type(exc).__name__}: {exc}")


def _tagged_row(f_ghz, k0, theta_deg, cos_theta, plan, act, g_tgt) -> tuple:
    """The row of a point where a walk, a fold or the synthesis step
    failed, from its actual and target batch entries: None is tagged
    domain and an error by its own tag, in the order actual, target, step.
    A step is tried where there is a plan, the actual fold got through and
    Gamma_i is a value."""
    errs = [DomainError.tag if e is None else e.tag for e in (act, g_tgt) if type(e) is not complex]
    rho_req = aux = passive = None
    if plan is not None and act is not None and type(g_tgt) is complex:
        from .synthesis import _sheet_step

        try:
            rho_req, aux, passive = _sheet_step(plan, k0, g_tgt, cos_theta)
        except PlanemirageError as exc:
            errs.append(exc.tag)
    act, g_tgt = (e if type(e) is complex else None for e in (act, g_tgt))
    return f_ghz, theta_deg, act, g_tgt, rho_req, aux, passive, ";".join(errs)


def _entries(folds: list, slots: list) -> list:
    """A batch's entries, one per slot: the fold of each slot that holds a
    walk, in turn, and the error of each walk that failed."""
    folds = iter(folds)
    return [next(folds) if type(s) is tuple else s for s in slots]


def _sweep(config: ScenarioConfig, mode: Mode | None) -> Iterator[tuple]:
    """Both stacks' total reflection at every grid point, (freq, theta)
    order, plus the point's sheet_state when mode is given; each row is
    yielded as soon as its point is done, as a plain tuple in SweepRow's
    field order, and a frequency's rows share one freq_ghz float and an
    angle's rows one theta_deg float.

    Every medium is non-dispersive, so each stack is walked once per angle,
    and each frequency makes two walk_reflections calls: the actual batch,
    then the target batch. In a synthesis, each actual walk also gives one
    sheet_plan, and each point takes the plan's step. A transmissive actual
    batch folds the plans' walks of layers 2..N into unclosed pairs; its
    step, _front_step, closes both the actual Gamma and the front sheet from
    the pair. A point gets the same bits as chain_reflection and synthesize.

    A point whose entries are values and whose step succeeded makes no
    other call. Any other point goes to _tagged_row, which makes its row
    from its two entries: a walk that failed keeps its error in its slot,
    so it is tagged at every frequency of its angle, and a fold gives None
    or the error of its close. Only a transmissive point folds its actual
    walk once more, closed, as its entry is the unclosed pair. A point is
    synthesized when Gamma_i is known and the fold of the actual walk got
    through, even where the actual Gamma failed at its close; otherwise
    each failure is tagged once. Any other exception at a point raises
    GridPointFault; one inside a batch is named by the first angle of that
    frequency whose walks, each folded alone, raise it."""
    if mode is not None:
        from .synthesis import _front_step, _sheet_step, sheet_plan
    # each angle's actual and target slot: its walk, or the error of a walk that
    # failed; a transmissive actual slot holds the plan's walk of layers 2..N
    angles, act_slots, tgt_slots = [], [], []
    transmissive = mode is Mode.TRANSMISSIVE
    # the type of an actual entry that got through: a Gamma, or transmissive the pair that the step closes
    through = tuple if transmissive else complex
    f_ghz = theta_deg = None
    # One guard around both loops: the loop variables name the point that raised.
    try:
        for theta_deg in config.theta_deg.values():
            theta = math.radians(theta_deg)
            actual = _angle_walk(config.actual, theta)
            target = _angle_walk(config.target, theta)
            plan = sheet_plan(mode, actual) if mode is not None and type(actual) is tuple else None
            angles.append((theta_deg, cmath.cos(theta), actual, target, plan))
            act_slots.append(plan[1][2] if transmissive and plan is not None else actual)
            tgt_slots.append(target)
        act_walks = [s for s in act_slots if type(s) is tuple]
        tgt_walks = [s for s in tgt_slots if type(s) is tuple]
        for f_ghz in config.freq_ghz.values():
            k0 = PlaneWave(f_ghz * 1e9).k0
            theta_deg = None
            try:
                acts = walk_reflections(act_walks, k0, _pairs=transmissive)
                if len(acts) < len(act_slots):
                    acts = _entries(acts, act_slots)
                g_tgts = walk_reflections(tgt_walks, k0)
                if len(g_tgts) < len(tgt_slots):
                    g_tgts = _entries(g_tgts, tgt_slots)
            except Exception:
                # a fault inside a batch: the first angle whose walks, each folded alone, raise it names it
                for theta_deg, _, actual, target, _ in angles:
                    for walk in (actual, target):
                        if type(walk) is tuple:
                            walk_reflections((walk,), k0)
                theta_deg = None
                raise
            for (theta_deg, cos_theta, actual, _, plan), act, g_tgt in zip(angles, acts, g_tgts):
                row = None
                if act.__class__ is through and g_tgt.__class__ is complex:
                    try:
                        if plan is None:
                            row = f_ghz, theta_deg, act, g_tgt, None, None, None, ""
                        else:
                            if transmissive:
                                act, rho_req, aux, passive = _front_step(plan, k0, g_tgt, cos_theta, act)
                            else:
                                rho_req, aux, passive = _sheet_step(plan, k0, g_tgt, cos_theta)
                            row = f_ghz, theta_deg, act, g_tgt, rho_req, aux, passive, ""
                    except PlanemirageError:
                        pass
                if row is None:
                    if transmissive and plan is not None:  # act is the pair: fold the whole walk, closed
                        (act,) = walk_reflections((actual,), k0)
                    row = _tagged_row(f_ghz, k0, theta_deg, cos_theta, plan, act, g_tgt)
                yield row
    except PlanemirageError:
        raise
    except Exception as exc:
        raise GridPointFault(f_ghz, theta_deg, exc) from exc


def run_simulate(config: ScenarioConfig) -> list[SweepRow]:
    """Total reflection of both stacks at every grid point, (freq, theta) order."""
    return list(map(SweepRow._make, _sweep(config, None)))


_NO_MODE = "synthesize needs a mode (reflective or transmissive)"


def run_synthesize(config: ScenarioConfig) -> list[SweepRow]:
    """run_simulate plus the synthesized sheet state at every grid point."""
    if config.mode is None:
        raise ConfigError(_NO_MODE)
    return list(map(SweepRow._make, _sweep(config, config.mode)))
