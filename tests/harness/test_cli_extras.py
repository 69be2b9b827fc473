"""CLI verbs added after the core set: formats, charts, recommend."""


import pytest

from repro.cli import main

_TIME = ["time", "ResNet-18", "Jetson Nano", "TensorRT"]


class TestRunFormats:
    def test_markdown_output(self, capsys):
        assert main(["run", "table6", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "|---" in out
        assert "| Raspberry Pi 3B |" in out

    def test_csv_output(self, capsys):
        assert main(["run", "table6", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("label,")

    def test_chart_flag(self, capsys):
        assert main(["run", "fig07", "--chart", "speedup"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "speedup" in out

    def test_chart_unknown_column(self, capsys):
        assert main(["run", "fig07", "--chart", "nonsense"]) == 2
        assert "no column" in capsys.readouterr().err


class TestRecommend:
    def test_feasible_run(self, capsys):
        assert main(["recommend", "MobileNet-v2", "--deadline-ms", "100"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "satisfy" in out

    def test_infeasible_returns_one(self, capsys):
        assert main(["recommend", "Inception-v4", "--deadline-ms", "1"]) == 1
        out = capsys.readouterr().out
        assert "0/" in out

    def test_unknown_model(self, capsys):
        assert main(["recommend", "NoSuchNet"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_top_limits_rows(self, capsys):
        assert main(["recommend", "MobileNet-v2", "--top", "2"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if " via " in line]
        assert len(rows) == 2


class TestTimeScenarioFlags:
    def test_timed_output_includes_seed_and_cache(self, capsys):
        assert main(["time", "ResNet-18", "Jetson Nano", "TensorRT"]) == 0
        out = capsys.readouterr().out
        assert "ms/inference" in out
        assert "seed 0xa503b5ef" in out      # golden Scenario.seed
        assert "deploy cache" in out

    def test_no_timer_skips_timing_loop(self, capsys):
        assert main(["time", "ResNet-18", "Jetson Nano", "TensorRT",
                     "--no-timer"]) == 0
        assert "timed:" not in capsys.readouterr().out

    def test_scenario_axes_accepted(self, capsys):
        assert main(["time", "MobileNet-v2", "Jetson TX2", "PyTorch",
                     "--dtype", "fp16", "--batch", "4",
                     "--power-mode", "Max-Q", "--container"]) == 0
        assert "ms/inference" in capsys.readouterr().out

    def test_failure_reports_taxonomy_kind(self, capsys):
        assert main(["time", "VGG16", "Raspberry Pi 3B", "TensorFlow"]) == 1
        err = capsys.readouterr().err
        assert "deployment failed" in err
        assert "[memory_error]" in err

    @pytest.mark.parametrize("argv", [
        [*_TIME, "--batch", "0"], [*_TIME, "--runs", "0"],
        [*_TIME, "--runs", "-1"],
        ["suite", "table6", "--jobs", "0"], ["suite", "table6", "--jobs", "-1"],
        ["export", "y.json", "table6", "--jobs", "-3"],
        ["recommend", "ResNet-18", "--top", "-1"],
        ["place", "MobileNet-v2", "--max-depth", "0"],
        ["place", "MobileNet-v2", "--max-depth", "-2"],
    ], ids=lambda argv: " ".join(argv[-2:]))
    def test_nonpositive_counts_exit_2(self, argv, capsys, tmp_path,
                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        flag, value = argv[-2:]
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be >= 1, got {value}\n"
        assert captured.out == ""
        assert not any(tmp_path.iterdir())  # export wrote no file


class TestExportParallel:
    def test_jobs_flag_produces_identical_snapshot(self, tmp_path, capsys):
        serial = tmp_path / "serial.json"
        threaded = tmp_path / "threaded.json"
        assert main(["export", str(serial), "fig07", "table6"]) == 0
        assert main(["export", str(threaded), "fig07", "table6",
                     "--jobs", "2"]) == 0
        assert serial.read_text() == threaded.read_text()

    def test_bad_executor_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["export", "out.json", "--executor", "rayon"])
        assert excinfo.value.code == 2
