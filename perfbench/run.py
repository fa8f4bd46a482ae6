"""Sweep benchmark for planemirage.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload builtin-cli --seed 1 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Exit status is 0 when every output check
passed, 1 when one failed, 2 when the checkout holds no program to measure.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import contextlib
import gc
import importlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"
sys.path[:0] = [str(HERE), str(SRC), str(ROOT / "tests")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Least number of cold starts sampled per run for setup_s. The untraced run
# takes one before every subprocess command, so that the samples spread over
# the run like the other metrics' do, and tops up to this number at the end.
SETUP_STARTS = 9

# Untraced passes over the trace grid in a traced run; their median wall is
# the base of trace.overhead_ratio.
UNTRACED_PASSES = 5

# The time metrics are scaled to a nominal machine speed. On the shared
# 2-vCPU machine in README.md the same code runs up to 1.6x faster or slower
# from one second to the next and from one minute to the next, as other
# tenants come and go, so raw wall times of identical runs spread by up to
# 30 %. A reference chunk
# of pure Python, in the package's style (complex arithmetic, cmath, small
# allocations) but sharing no code with it, runs before every command. Its
# mean time over the run, divided by REF_NOMINAL_S, is the run's slowdown.
# Times are divided by it and rates multiplied; raw figures stay in the
# detail record. REF_NOMINAL_S is the chunk's typical time on the machine
# in README.md, so scaled figures read as seconds there.
REF_NOMINAL_S = 0.014


def reference_chunk() -> float:
    """Seconds taken by a fixed piece of work that the program cannot change."""
    t = time.perf_counter()
    z = 0.3 + 0.1j
    acc = []
    for k in range(20000):
        w = cmath.sqrt(z * k + 1.0) * cmath.exp(-1j * 0.001 * k)
        acc.append((w.real, w.imag))
    return time.perf_counter() - t


# Fresh interpreter to parsed scenario. The child reports CLOCK_MONOTONIC,
# which the parent shares, so interpreter start-up is inside the interval
# and tear-down is not.
PROBE = """\
import sys, time
t0 = time.perf_counter()
import planemirage.cli as cli
t1 = time.perf_counter()
if len(sys.argv) > 1:
    from pathlib import Path
    cli.parse_scenario(Path(sys.argv[1]))
else:
    cli.builtin_scenario()
t2 = time.perf_counter()
done = time.monotonic()
print(repr((done, t1 - t0, t2 - t1)))
"""


class Launcher:
    """Handle on launcher.py, which spawns and reaps every child process."""

    def __init__(self, work: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def run(self, argv: list[str]) -> dict:
        """Run one child to its end: t_spawn, wall, rc, rss_kb (its own peak) and stdout."""
        out = self.work / "child.out"
        req = {"argv": argv, "stdout": str(out), "stderr": str(self.work / "child.err")}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the launcher process died")
        reply = json.loads(line)
        reply["stdout"] = out.read_text(encoding="utf-8")
        return reply

    def close(self, abort: bool) -> None:
        """End the launcher and wait for it; on abort it kills a running child first."""
        if abort:
            self.proc.terminate()
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def count_err_rows(text: str) -> int:
    return sum(1 for line in text.split("\n")[1:] if line and not line.endswith(","))


class Session:
    """One benchmark run: its work directory, launcher, configs and tallies."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path, launcher: Launcher):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.launcher = launcher
        self.cli = importlib.import_module("planemirage.cli")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # check failures: the run is not correct
        self.failures: list[str] = []   # operations that failed, counted in failed
        self.setup: list[dict] = []
        self._warm = False
        self._configs: dict[int, Path] = {}

    def probe(self) -> None:
        """Sample one cold start: fresh interpreter, import, parse, exit. The
        first of a run is discarded, since on a fresh checkout it also
        compiles the bytecode."""
        config = self.config_path(self.workload.setup)
        child = self.launcher.run([sys.executable, "-c", PROBE] + ([str(config)] if config else []))
        if child["rc"] != 0:
            raise SystemExit(f"perfbench: set-up probe exited {child['rc']}")
        done, import_s, parse_s = ast.literal_eval(child["stdout"])
        if self._warm:
            self.setup.append({
                "setup_s": done - child["t_spawn"],
                "import_s": import_s,
                "parse_s": parse_s,
                "rss_kb": child["rss_kb"],
            })
        self._warm = True

    def config_path(self, config: dict | None) -> Path | None:
        if config is None:
            return None
        key = id(config)
        if key not in self._configs:
            path = self.work / f"config{len(self._configs)}.json"
            workloads.write_config(config, path)
            self._configs[key] = path
        return self._configs[key]

    def subprocess_command(self, cmd: workloads.Command, tag: str) -> tuple[float, int, str]:
        """(wall s, own peak RSS KB, output) of `python -m planemirage ...`."""
        out = self.work / f"{cmd.name}-{tag}.{cmd.output}"
        argv = [sys.executable, "-m", "planemirage"] + cmd.argv(self.config_path(cmd.config), out)
        child = self.launcher.run(argv)
        return child["wall"], child["rss_kb"], self._tally(cmd, child["rc"], out, "subprocess")

    def in_process_command(self, cmd: workloads.Command, tag: str) -> tuple[float, str]:
        """(wall s, output) of planemirage.cli.main in this process."""
        out = self.work / f"{cmd.name}-{tag}.{cmd.output}"
        argv = cmd.argv(self.config_path(cmd.config), out)
        gc.collect()  # start every timed command from the same collector state
        t = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash fails this command, not the run
            self.failures.append(f"in-process {cmd.name} raised {exc!r}")
            rc = 1
        wall = time.perf_counter() - t
        return wall, self._tally(cmd, rc, out, "in-process")

    def _tally(self, cmd: workloads.Command, rc: int, out: Path, how: str) -> str:
        """Count the command and its points as attempted, and as failed if
        it exited non-zero or tagged rows with err."""
        self.attempted += 1 + cmd.points
        if rc != 0:
            self.failed += 1 + cmd.points
            self.failures.append(f"{how} {cmd.name} exited {rc}")
            return ""
        text = out.read_text(encoding="utf-8")
        if cmd.output == "csv":
            self.failed += count_err_rows(text)
        return text

    def check(self, cmd: workloads.Command, text: str) -> Counter:
        """Run the output checks on one output; returns its rows by err tag."""
        if not text:
            return Counter()
        if cmd.output == "svg":
            self.problems += checks.check_svg(cmd, text)
            return Counter()
        problems, err_tags = checks.check_table(cmd, text, self.seed)
        self.problems += problems
        return err_tags

    def same(self, what: str, a: str, b: str) -> None:
        if a and b and a != b:
            self.problems.append(f"{what}: output bytes differ")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _rate(rounds: list[dict], key: str) -> float:
    """Points per second over all of a run's in-process commands of one kind.

    The machine this was tuned on switches between two speeds about 1.6x
    apart, several times a second. The median of such a sample jumps between
    the two speeds with the share of fast samples, while total points over
    total time moves smoothly with it, so the rates are totals.
    """
    samples = [x for r in rounds for x in r[key]]
    return sum(points for points, _ in samples) / sum(wall for _, wall in samples)


def measure(s: Session, seconds: float, starts: int) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off. Whole rounds repeat until the next
    one would overrun the run length."""
    wl = s.workload
    s.probe()
    by_name = {c.name: c for c in wl.commands if c.output == "csv"}
    in_proc = [by_name[name] for name in wl.in_process]
    largest = next(c for c in wl.commands if c.name == "synthesize-reflective")
    rounds = []
    ref: list[float] = []
    first: dict[str, str] = {}
    t_start = time.perf_counter()
    while True:
        r = {"cli_wall_s": 0.0, "sim": [], "syn": []}
        for cmd in wl.commands:
            s.probe()
            ref.append(reference_chunk())
            wall, rss, text = s.subprocess_command(cmd, "sub")
            r["cli_wall_s"] += wall
            if cmd is largest:
                r["peak_rss_kb"] = rss
            key = f"{cmd.name}.{cmd.output}"
            s.same(f"subprocess {key} between rounds", first.setdefault(key, text), text)
        for cmd in in_proc:
            ref.append(reference_chunk())
            wall, text = s.in_process_command(cmd, "inproc")
            r["sim" if cmd.name == "simulate" else "syn"].append((cmd.points, wall))
            s.same(f"in-process vs subprocess {cmd.name}", first[f"{cmd.name}.csv"], text)
        rounds.append(r)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    while len(s.setup) < starts:
        s.probe()

    for cmd in wl.commands:
        s.check(cmd, first[f"{cmd.name}.{cmd.output}"])
    raw = {
        "setup_s": statistics.median(x["setup_s"] for x in s.setup),
        "cli_wall_s": statistics.median(r["cli_wall_s"] for r in rounds),
        "sim_points_per_s": _rate(rounds, "sim"),
        "synth_points_per_s": _rate(rounds, "syn"),
    }
    slowdown = statistics.fmean(ref) / REF_NOMINAL_S
    metrics = {
        "setup_s": _metric(raw["setup_s"] / slowdown, "s"),
        "cli_wall_s": _metric(raw["cli_wall_s"] / slowdown, "s"),
        "sim_points_per_s": _metric(raw["sim_points_per_s"] * slowdown, "points/s"),
        "synth_points_per_s": _metric(raw["synth_points_per_s"] * slowdown, "points/s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_kb"] / 1024.0 for r in rounds), "MB"),
    }
    detail = {"raw": raw, "slowdown": slowdown, "reference_s": ref, "rounds": rounds, "setup": s.setup}
    return metrics, detail


def _min_wave_states(cmd: workloads.Command) -> int:
    """Wave-state evaluations one point needs: every layer of both stacks
    once, plus the half-space behind each Open termination."""
    scen = cmd.scenario
    return sum(
        len(stack["layers"]) + (stack["termination"]["kind"] == "open")
        for stack in (scen["actual"], scen["target"])
    )


def measure_layers(s: Session, starts: int, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: cold-start split, memory per row, and one traced
    in-process pass over the workload's trace grid. The amount of work is
    fixed, so that failed stays the same share of attempted."""
    wl = s.workload
    while len(s.setup) < starts:
        s.probe()
    largest = next(c for c in wl.commands if c.name == "synthesize-reflective")
    _, rss, text = s.subprocess_command(largest, "sub")
    s.check(largest, text)
    base_rss = statistics.median(x["rss_kb"] for x in s.setup)

    # The trace commands plus simulate to SVG, so that SVG emit is measured
    # on every workload.
    sim_cfg = wl.trace_commands[0].config
    cmds = list(wl.trace_commands)
    cmds.append(workloads.Command("simulate", dict(sim_cfg, output={"format": "svg"}), "svg"))
    plain: dict[str, str] = {}
    walls = []
    for _ in range(UNTRACED_PASSES):
        t = time.perf_counter()
        for cmd in cmds:
            _, text = s.in_process_command(cmd, "plain")
            plain.setdefault(cmd.name + cmd.output, text)
        walls.append(time.perf_counter() - t)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        t = time.perf_counter()
        for i, cmd in enumerate(cmds):
            tracer.trace_id = i
            _, text = s.in_process_command(cmd, "traced")
            s.same(f"traced vs untraced {cmd.name}.{cmd.output}", plain[cmd.name + cmd.output], text)
        traced_wall = time.perf_counter() - t
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    rows_err = sum((s.check(cmd, plain[cmd.name + cmd.output]) for cmd in cmds), Counter())

    spans = tracer.summary()

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else 0

    def per(name: str, key: str, denom: float) -> float:
        return spans[name][key] / denom if name in spans and denom else 0.0

    def per_call(name: str, key: str = "us") -> float:
        return per(name, key, calls(name))

    points = sum(c.points for c in cmds)
    sim_points = sum(c.points for c in cmds if not c.synthesis)
    syn_points = sum(c.points for c in cmds if c.synthesis)
    csv_rows = sum(c.points for c in cmds if c.output == "csv")
    svg_rows = sum(c.points for c in cmds if c.output == "svg")
    needed = sum(c.points * _min_wave_states(c) for c in cmds)
    cr, cs, lws, tr = (
        f"wavecore.{f}" for f in
        ("chain_reflection", "chain_segments", "layer_wave_state", "termination_reflection")
    )
    syn = "synthesis.synthesize"
    m = {
        "cli.import_s": _metric(statistics.median(x["import_s"] for x in s.setup), "s"),
        "cli.parse_scenario_s": _metric(statistics.median(x["parse_s"] for x in s.setup), "s"),
        "cli.run_simulate.self_us_per_point": _metric(per("cli.run_simulate", "self_us", sim_points), "us/point"),
        "cli.run_synthesize.self_us_per_point": _metric(per("cli.run_synthesize", "self_us", syn_points), "us/point"),
        "cli.emit.csv_us_per_row": _metric(per("cli.emit.csv", "us", csv_rows), "us/row"),
        "cli.emit.svg_us_per_row": _metric(per("cli.emit.svg", "us", svg_rows), "us/row"),
        "cli.sweep.peak_rss_kb_per_row": _metric((rss - base_rss) / largest.points, "KB/row"),
        "cli.rows_err": _metric(rows_err.total(), "count"),
        f"{cr}.calls_per_point": _metric(calls(cr) / points, "calls/point"),
        f"{cr}.us_per_call": _metric(per_call(cr), "us/call"),
        f"{cs}.calls_per_point": _metric(calls(cs) / points, "calls/point"),
        f"{cs}.self_us_per_call": _metric(per_call(cs, "self_us"), "us/call"),
        f"{lws}.calls_per_point": _metric(calls(lws) / points, "calls/point"),
        f"{lws}.us_per_call": _metric(per_call(lws), "us/call"),
        f"{lws}.useful_ratio": _metric(needed / calls(lws) if calls(lws) else 0.0, "ratio"),
        f"{tr}.calls_per_point": _metric(calls(tr) / points, "calls/point"),
        f"{syn}.reflective.self_us_per_call": _metric(per_call(f"{syn}.reflective", "self_us"), "us/call"),
        f"{syn}.transmissive.self_us_per_call": _metric(per_call(f"{syn}.transmissive", "self_us"), "us/call"),
        "gstc.impedance_from_reflection.us_per_call": _metric(per_call("gstc.impedance_from_reflection"), "us/call"),
        "gstc.susceptibility_from_reflection.us_per_call": _metric(per_call("gstc.susceptibility_from_reflection"), "us/call"),
        "trace.overhead_ratio": _metric(traced_wall / statistics.median(walls), "ratio"),
    }
    detail = {
        "calls": {name: v["calls"] for name, v in sorted(spans.items())},
        "rows_err_by_tag": dict(rows_err),
        "spans": spans,
        "trace_points": points,
        "untraced_walls_s": walls,
        "traced_wall_s": traced_wall,
        "setup": s.setup,
    }
    return m, detail


def run(workload: str, seed: int, seconds: float, trace: bool, fast: bool = False) -> dict:
    """One benchmark run: the result line plus a detail record. `fast` swaps
    in tiny grids for the self-test."""
    wl = workloads.make(workload, seed, fast)
    starts = 2 if fast else SETUP_STARTS
    RESULTS.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher(work)
    aborted = True
    try:
        s = Session(wl, seed, work, launcher)
        if trace:
            spans_path = RESULTS / f"{workload}-seed{seed}.spans.csv.gz"
            metrics, detail = measure_layers(s, starts, spans_path)
        else:
            metrics, detail = measure(s, seconds, starts)
        aborted = False
    finally:
        launcher.close(abort=aborted)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    result = {
        "correct": not s.problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": metrics,
    }
    return {"result": result, "problems": s.problems[:50], "failures": s.failures[:50], **detail}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "planemirage" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a planemirage checkout", file=sys.stderr)
            return 2
    # One CPU for the run and every child it starts, so that the reference
    # chunk meets the same neighbours as the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # On SIGTERM unwind normally, so that the launcher and its child are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for failure in record["failures"]:
        print(f"perfbench: operation failed: {failure}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
