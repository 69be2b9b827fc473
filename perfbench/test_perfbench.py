"""Self-test of the benchmark at toy size.

Runs every workload through the command line at ``--size toy`` (10k fleet
requests, two zoo models, the ``tables`` check pass, three experiments) in
both modes and checks the output contract against ``BENCHMARK.json``; then
checks that a perturbed baseline cell is counted as a failed operation and
that the benchmark refuses to run without the program's sources.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    done = _run_cli(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                    "--trace", trace, "--size", "toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    else:
        events = json.loads(
            (run.OUT / f"{workload}-seed3-trace1.trace.json").read_text())["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)


def test_perturbed_baseline_cell_counts_as_failed_op():
    run.use_sources()
    from repro.harness.suite import load_results

    baseline = copy.deepcopy(load_results(workloads.BASELINE))
    row = baseline["experiments"][workloads.TOY.experiments[0]]["rows"][0]
    column = next(key for key, value in row.items()
                  if isinstance(value, float))
    row[column] = math.nextafter(row[column], math.inf)
    workload = workloads.SuiteCold(seed=0, size=workloads.TOY, baseline=baseline)
    measured = run.benchmark(workload, seconds=0.0, trace=False,
                             sample_setup=lambda: 1.0)
    result = measured["result"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_cli(tmp_path, "--workload", "suite-cold", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
