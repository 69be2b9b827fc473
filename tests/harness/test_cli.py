"""Command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out
        assert "ResNet-18" in out
        assert "Jetson Nano" in out
        assert "TensorRT" in out


class TestRun:
    def test_runs_named_experiments(self, capsys):
        assert main(["run", "table6"]) == 0
        out = capsys.readouterr().out
        assert "Table VI" in out

    def test_multiple_experiments(self, capsys):
        assert main(["run", "table6", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "Table VI" in out and "Figure 13" in out

    def test_no_experiments_is_an_error(self, capsys):
        assert main(["run"]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_unknown_experiment_is_an_error(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err


class TestTime:
    def test_times_a_deployment(self, capsys):
        assert main(["time", "ResNet-18", "Jetson Nano", "TensorRT"]) == 0
        assert "ms/inference" in capsys.readouterr().out

    def test_reports_deployment_failures(self, capsys):
        assert main(["time", "VGG16", "Raspberry Pi 3B", "TensorFlow"]) == 1
        assert "deployment failed" in capsys.readouterr().err

    def test_accepts_paper_aliases(self, capsys):
        assert main(["time", "resnet18", "Nano", "T-RT"]) == 0

    @pytest.mark.parametrize("argv,message", [
        (["NoModel", "Jetson TX2", "PyTorch"], "unknown model: 'NoModel'"),
        (["ResNet-18", "NoDevice", "PyTorch"], "unknown device: 'NoDevice'"),
        (["ResNet-18", "Jetson TX2", "NoFramework"],
         "unknown framework: 'NoFramework'"),
        (["ResNet-18", "Jetson TX2", "PyTorch", "--power-mode", "NoMode"],
         "unknown operating point 'NoMode'"),
    ], ids=["model", "device", "framework", "power-mode"])
    def test_unknown_names_are_usage_errors(self, capsys, argv, message):
        assert main(["time", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "deployment failed" not in err


class TestCompat:
    def test_prints_table_v(self, capsys):
        assert main(["compat"]) == 0
        assert "Table V" in capsys.readouterr().out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])
