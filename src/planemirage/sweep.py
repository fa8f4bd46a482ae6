"""Scenario sweeps, the library behind simulate and synthesize; no argparse.

A ScenarioConfig, from builtin_scenario or planemirage.config.parse_scenario,
holds two stacks, a mode and the (theta, f) grid in SI units, refused
before its first point if it would leave the float range, an axis would
have more than MAX_AXIS_POINTS points, or its angles times the layers of
both stacks would be more than MAX_LAYER_ANGLES walk layers to hold.
run_simulate and run_synthesize return SweepRows from one loop that walks
each stack once per angle and, at each frequency, folds every angle's
walks in one wavecore.walk_reflections call; run_synthesize also plans the
synthesis of each angle's actual walk once (synthesis.sheet_plan) and
takes the plan's step at every point; a transmissive step also gives the
actual stack's Gamma, from a second batch that folds the plans' walks of
layers 2..N. A point with no error pays for its share of the batch and its
step alone; only a point where a walk, a fold or the step failed goes to
the tagging rules. The loop yields each row as its point is done, for
planemirage.output.emit to write. Synthesis code is loaded only for a
synthesis.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import namedtuple
from collections.abc import Iterator

from ._value import Value
from .errors import ConfigError, PlanemirageError
from .wavecore import (
    AIR,
    Layer,
    Medium,
    Mode,
    Open,
    Pec,
    PlaneWave,
    Stack,
    _close,
    angle_walk,
    walk_reflection,
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


def _error_tag(exc: Exception) -> str:
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[:-5]
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _angle_walk(stack: Stack, theta: float):
    """The stack's angle walk at theta, or the error tag of the walk if it raised."""
    try:
        return angle_walk(stack, theta)
    except PlanemirageError as exc:
        return _error_tag(exc)


def _gamma(walk, k0: float, errs: list[str]) -> tuple[complex | None, bool]:
    """(Gamma, folded) of one stack at k0 from its angle walk: Gamma is None
    where the walk, its fold or its close failed, with the failure's tag in
    errs, and folded is whether the fold got through, every round trip finite."""
    if isinstance(walk, str):
        errs.append(walk)
        return None, False
    folded = False
    try:
        pair = walk_reflection(walk, k0, _pair=True)
        folded = True
        return _close(*pair), True
    except PlanemirageError as exc:
        errs.append(_error_tag(exc))
        return None, folded


class GridPointFault(Exception):
    """A sweep point raised an exception that is not a PlanemirageError: a
    fault of the program, not of the point's input, so the sweep stops
    instead of tagging the point. f_ghz is None when the angle walk raised,
    and theta_deg is None when a frequency's batch raised and no point of
    it raised again on its own."""

    def __init__(self, f_ghz: float | None, theta_deg: float | None, exc: Exception) -> None:
        where = []
        if f_ghz is not None:
            where.append(f"f = {f_ghz!r} GHz")
        if theta_deg is not None:
            where.append(f"theta = {theta_deg!r} deg")
        super().__init__(f"{', '.join(where)}: {type(exc).__name__}: {exc}")


def _tagged_row(f_ghz, k0, theta_deg, cos_theta, actual, target, plan) -> tuple:
    """The row of a point where a walk, a fold or the synthesis step
    failed, each failure tagged once, in the order actual, target, step."""
    errs = []
    g_act, folded = _gamma(actual, k0, errs)
    g_tgt, _ = _gamma(target, k0, errs)
    rho_req = aux = passive = None
    if plan is not None and g_tgt is not None and folded:
        from .synthesis import _sheet_step

        try:
            rho_req, aux, passive = _sheet_step(plan, k0, g_tgt, cos_theta)
        except PlanemirageError as exc:
            errs.append(_error_tag(exc))
    return f_ghz, theta_deg, g_act, g_tgt, rho_req, aux, passive, ";".join(errs)


def _spread(folds: list, walked: list[bool], width: int) -> list:
    """A batch's results, width per walked angle, as width per angle of the
    sweep: None for each of an angle whose walks failed."""
    folds = iter(folds)
    return [next(folds) if ok else None for ok in walked for _ in range(width)]


def _sweep(config: ScenarioConfig, mode: Mode | None) -> Iterator[tuple]:
    """Both stacks' total reflection at every grid point, (freq, theta)
    order, plus the point's sheet_state when mode is given; each row is
    yielded as soon as its point is done, as a plain tuple in SweepRow's
    field order, and a frequency's rows share one freq_ghz float and an
    angle's rows one theta_deg float.

    Every medium is non-dispersive, so each stack is walked once per angle,
    and each frequency folds the actual and target walk of every walked
    angle in one walk_reflections call. In a synthesis, each angle's actual
    walk also gives one sheet_plan, and each point takes the plan's step.
    A transmissive sweep folds the target walks in one call and the plans'
    walks of layers 2..N, into unclosed pairs, in a second; its step,
    _front_step, closes both the actual Gamma and the front sheet from the
    pair. A point gets the same bits as chain_reflection and synthesize.

    A point whose folds and step succeeded makes no other call. A point
    whose walk failed, whose fold came back None or whose step raised goes
    to _tagged_row, which makes its row again by the tagging rules with the
    one-walk walk_reflection; every fold and step is deterministic, so the
    bits are the same. A failed walk is tagged at every frequency of its
    angle, and has no plan. A point is synthesized when Gamma_i is known
    and the fold of the actual walk got through, even where the actual
    Gamma failed at its close; otherwise each failure is tagged once. Any
    other exception at a point raises GridPointFault; one inside a batch
    is named by the first point of that frequency whose own row raises it."""
    if mode is not None:
        from .synthesis import _front_step, _sheet_step, sheet_plan
    angles, walked = [], []
    # the walks of the walked angles that each frequency folds, in angle order:
    # transmissive, the target walks, then the plans' walks of layers 2..N
    walks, rests = [], []
    transmissive = mode is Mode.TRANSMISSIVE
    f_ghz = theta_deg = None
    # One guard around both loops: the loop variables name the point that raised.
    try:
        for theta_deg in config.theta_deg.values():
            theta = math.radians(theta_deg)
            actual = _angle_walk(config.actual, theta)
            target = _angle_walk(config.target, theta)
            ok = not isinstance(actual, str) and not isinstance(target, str)
            plan = sheet_plan(mode, actual) if ok and mode is not None else None
            angles.append((theta_deg, cmath.cos(theta), actual, target, plan))
            walked.append(ok)
            if ok and transmissive:
                walks.append(target)
                rests.append(plan[1][2])
            elif ok:
                walks += actual, target
        every = all(walked)
        for f_ghz in config.freq_ghz.values():
            k0 = PlaneWave(f_ghz * 1e9).k0
            theta_deg = None
            try:
                folds = walk_reflections(walks, k0)
                if not every:
                    folds = _spread(folds, walked, 1 if transmissive else 2)
                acts = g_tgts = iter(folds)
                if transmissive:
                    acts = walk_reflections(rests, k0, _pairs=True)
                    if not every:
                        acts = _spread(acts, walked, 1)
            except Exception:
                # a fault inside a batch: the first point whose own row raises it names it
                for theta_deg, cos_theta, actual, target, plan in angles:
                    _tagged_row(f_ghz, k0, theta_deg, cos_theta, actual, target, plan)
                theta_deg = None
                raise
            # act: the actual Gamma, or in transmissive mode the pair that the step closes
            for (theta_deg, cos_theta, actual, target, plan), act, g_tgt in zip(angles, acts, g_tgts):
                row = None
                if act is not None and g_tgt is not None:
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
                yield row or _tagged_row(f_ghz, k0, theta_deg, cos_theta, actual, target, plan)
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
