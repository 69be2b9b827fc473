"""The parallel sweep runner and its ``suite`` CLI verb.

The load-bearing claim: the snapshot a worker pool assembles is identical
to the serial one — experiment order comes from the input list (not from
completion order) and measurement noise is seeded per cell, so parallelism
cannot leak into the numbers.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.summation import serial_sum
from repro.engine.cache import clear_caches
from repro.harness.registry import list_experiments
from repro.harness.suite import compare_results, export_results
from repro.harness.sweep_runner import ExperimentRun, SweepResult, run_sweep

FAST_IDS = ["table6", "fig13", "fig08", "table1"]


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestRunSweep:
    @pytest.fixture(scope="class")
    def serial(self):
        clear_caches()
        return run_sweep(FAST_IDS, jobs=1)

    def test_snapshot_matches_export_results(self, serial):
        assert serial.snapshot == export_results(FAST_IDS)

    def test_runs_in_input_order_with_timings(self, serial):
        assert [run.experiment_id for run in serial.runs] == FAST_IDS
        assert all(run.wall_s >= 0 for run in serial.runs)
        assert serial.wall_s >= 0
        assert serial.experiment_s == serial_sum(run.wall_s for run in serial.runs)

    def test_threaded_snapshot_identical_to_serial(self, serial):
        parallel = run_sweep(FAST_IDS, jobs=4, executor="thread")
        assert parallel.snapshot == serial.snapshot
        assert compare_results(serial.snapshot, parallel.snapshot,
                               rel_tolerance=0.0) == []

    def test_process_snapshot_identical_to_serial(self, serial):
        parallel = run_sweep(FAST_IDS[:2], jobs=2, executor="process")
        for experiment_id in FAST_IDS[:2]:
            assert (parallel.snapshot["experiments"][experiment_id]
                    == serial.snapshot["experiments"][experiment_id])

    def test_explicit_ids_resolve(self):
        # The full-registry default is exercised by test_cache_identity.
        result = run_sweep(["table6"])
        assert set(result.snapshot["experiments"]) == {"table6"}
        assert "table6" in list_experiments()

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            run_sweep(FAST_IDS, jobs=2, executor="rayon")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_sweep(["fig99"])

    def test_describe_reports_totals(self, serial):
        text = serial.describe()
        assert f"{len(FAST_IDS)} experiments" in text
        for experiment_id in FAST_IDS:
            assert experiment_id in text

    def test_cache_stats_attached(self):
        result = run_sweep(["fig08"], jobs=1)
        assert set(result.cache) == {"graph", "deploy", "plan", "record",
                                     "payload"}
        assert result.cache["deploy"]["entries"] > 0


class TestExportResultsJobs:
    def test_parallel_export_identical(self):
        serial = export_results(FAST_IDS)
        parallel = export_results(FAST_IDS, jobs=3)
        assert parallel == serial


class TestSweepResult:
    def test_experiment_s_sums(self):
        result = SweepResult(
            snapshot={"snapshot_version": 1, "experiments": {}},
            runs=[ExperimentRun("a", 0.25), ExperimentRun("b", 0.5)],
            wall_s=0.5, jobs=2, executor="thread", cache={})
        assert result.experiment_s == 0.75
        assert "2 experiments" in result.describe()


class TestSuiteCliVerb:
    def test_suite_verb_runs_and_prints_stats(self, capsys):
        assert main(["suite", "table6", "fig13", "--jobs", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "2 experiments" in out
        assert "cache statistics" in out
        assert "deploy" in out

    def test_suite_verb_snapshot_matches_export(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        export_path = tmp_path / "export.json"
        assert main(["suite", "table6", "fig13", "--jobs", "2",
                     "--output", str(suite_path)]) == 0
        assert main(["export", str(export_path), "table6", "fig13"]) == 0
        capsys.readouterr()
        assert (json.loads(suite_path.read_text())
                == json.loads(export_path.read_text()))
        assert main(["diff", str(suite_path), str(export_path),
                     "--tolerance", "0.0"]) == 0

    def test_suite_verb_unwritable_output_is_a_usage_error(self, tmp_path,
                                                           capsys):
        path = tmp_path / "missing" / "suite.json"
        assert main(["suite", "table6", "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}")
        assert "Traceback" not in err

    def test_suite_verb_no_cache(self, capsys):
        from repro.engine.cache import cache_stats, caching_enabled

        assert main(["suite", "table6", "--no-cache"]) == 0
        assert caching_enabled()  # restored afterwards
        assert all(snapshot["entries"] == 0
                   for snapshot in cache_stats().values())

    def test_suite_verb_rejects_unknown_experiment(self, capsys):
        assert main(["suite", "fig99"]) == 2
        assert "error" in capsys.readouterr().err
