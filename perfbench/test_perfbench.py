"""Self-test of the benchmark, on tiny grids and without timing assertions.

    python3 -m pytest perfbench -q

It runs every workload in fast mode, shows that the output checks reject a
damaged table, and that two traced runs count the same calls. It does not
pin today's call counts, which a later fix is free to lower.
"""

import json

import pytest

import run  # puts src/ and tests/ on the path
import checks  # noqa: E402
import workloads  # noqa: E402
from planemirage import cli  # noqa: E402

NAMES = list(workloads.WORKLOADS)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", NAMES)
def test_fast_run_is_correct_and_reports_every_metric(name):
    record = run.run(name, seed=7, seconds=0, trace=False, fast=True)
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_repeat_call_counts(name):
    first = run.run(name, seed=7, seconds=0, trace=True, fast=True)
    second = run.run(name, seed=7, seconds=0, trace=True, fast=True)
    assert first["result"]["correct"] and second["result"]["correct"]
    assert first["calls"] == second["calls"]
    assert first["calls"]["wavecore.layer_wave_state"] > 0
    assert sorted(first["result"]["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])


def _table(tmp_path, name, cmd_name):
    cmd = next(c for c in workloads.make(name, 7, fast=True).commands if c.name == cmd_name)
    out = tmp_path / f"{cmd_name}.csv"
    config = workloads.write_config(cmd.config, tmp_path / "config.json")
    assert cli.main(cmd.argv(config, out)) == 0
    return cmd, out.read_text(encoding="utf-8")


def _perturb_digit(text, row, column):
    lines = text.split("\n")
    cells = lines[row].split(",")
    value = cells[column]
    i = next(k for k, ch in enumerate(value) if ch in "123456789")
    cells[column] = value[:i] + str(int(value[i]) % 9 + 1) + value[i + 1:]
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _swap_rows(text, a, b):
    lines = text.split("\n")
    lines[a], lines[b] = lines[b], lines[a]
    return "\n".join(lines)


CASES = [
    ("builtin-cli", "simulate", 2),
    ("dense-grid", "synthesize-reflective", 6),
    ("deep-stack", "synthesize-transmissive", 8),
    ("deep-stack", "simulate", 4),
]


@pytest.mark.parametrize("name,cmd_name,column", CASES)
def test_checks_accept_the_program_output(tmp_path, name, cmd_name, column):
    cmd, text = _table(tmp_path, name, cmd_name)
    problems, err_tags = checks.check_table(cmd, text, seed=7)
    assert problems == [] and not err_tags


@pytest.mark.parametrize("name,cmd_name,column", CASES)
def test_checks_reject_one_perturbed_digit(tmp_path, name, cmd_name, column):
    cmd, text = _table(tmp_path, name, cmd_name)
    problems, _ = checks.check_table(cmd, _perturb_digit(text, 3, column), seed=7)
    assert problems


@pytest.mark.parametrize("name,cmd_name,column", CASES)
def test_checks_reject_two_swapped_rows(tmp_path, name, cmd_name, column):
    cmd, text = _table(tmp_path, name, cmd_name)
    problems, _ = checks.check_table(cmd, _swap_rows(text, 2, 3), seed=7)
    assert problems
