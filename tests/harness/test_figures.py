"""Figure generators: structure and internal consistency.

Shape-level agreement with the paper is asserted separately in
tests/integration/test_paper_claims.py; these tests pin the mechanics.
"""

import pytest

from repro.harness import run_experiment
from repro.harness.paper_data import FIG2_MODELS, FIG9_MODELS, FIG13_MAX_OVERHEAD
from repro.runtime import default_runner


class TestBestFramework:
    def test_edgetpu_only_offers_tflite(self):
        best = default_runner().best_latency("MobileNet-v2", "EdgeTPU")
        assert best is not None and best[0] == "TFLite"

    def test_incompatible_everywhere_returns_none(self):
        assert default_runner().best_latency("ResNet-18", "EdgeTPU") is None

    def test_nano_picks_tensorrt(self):
        best = default_runner().best_latency("ResNet-18", "Jetson Nano")
        assert best is not None and best[0] == "TensorRT"


class TestFig01:
    def test_sorted_by_intensity(self):
        table = run_experiment("fig01")
        values = table.column("flop_per_param")
        assert values == sorted(values)


class TestFig02:
    @pytest.fixture(scope="class")
    def table(self):
        return run_experiment("fig02")

    def test_grid_is_complete(self, table):
        assert len(table) == 6 * len(FIG2_MODELS)

    def test_failures_marked(self, table):
        row = table.row("Raspberry Pi 3B / SSD MobileNet-v1")
        assert row["framework"] == "(fails)"

    def test_ratios_present_when_paper_value_known(self, table):
        row = table.row("Jetson Nano / ResNet-18")
        assert row["ratio"] == pytest.approx(1.0, abs=0.1)  # anchored


class TestFig03And04:
    def test_rpi_memory_errors_marked(self):
        table = run_experiment("fig03")
        row = table.row("AlexNet")
        assert row["TensorFlow (s)"] is None  # memory error
        assert row["PyTorch (s)"] is not None  # dynamic graph runs

    def test_darknet_gaps(self):
        table = run_experiment("fig03")
        assert table.row("Xception")["DarkNet (s)"] is None
        assert table.row("ResNet-50")["DarkNet (s)"] is not None

    def test_tx2_runs_everything_on_gpu_frameworks(self):
        table = run_experiment("fig04")
        for row in table:
            assert row["PyTorch (ms)"] is not None
            assert row["TensorFlow (ms)"] is not None


class TestFig05:
    def test_every_paper_bucket_has_a_row(self):
        table = run_experiment("fig05")
        assert len(table) == 23  # total buckets across the four pies
        for row in table:
            assert 0 <= row["measured_fraction"] <= 1
            assert 0 < row["paper_fraction"] <= 1


class TestFig07:
    def test_note_reports_average_speedup(self):
        table = run_experiment("fig07")
        assert any("average speedup" in note for note in table.notes)

    def test_speedup_consistency(self):
        table = run_experiment("fig07")
        for row in table:
            assert row["speedup"] == pytest.approx(
                row["pytorch_ms"] / row["tensorrt_ms"], rel=1e-6)


class TestFig09And10:
    def test_platform_columns(self):
        table = run_experiment("fig09")
        assert len(table) == len(FIG9_MODELS)
        assert table.row("ResNet-18")["Jetson TX2 (ms)"] is not None

    def test_geomean_note(self):
        table = run_experiment("fig10")
        assert any("geomean" in note for note in table.notes)


class TestFig11And12:
    def test_energy_units_are_millijoules(self):
        table = run_experiment("fig11")
        edgetpu = table.row("EdgeTPU / MobileNet-v2")
        assert 5 < edgetpu["energy_mj"] < 20

    def test_scatter_has_power_and_latency(self):
        table = run_experiment("fig12")
        for row in table:
            assert row["power_w"] > 0
            assert row["latency_ms"] > 0


class TestFig13:
    def test_overheads_under_cap(self):
        table = run_experiment("fig13")
        for row in table:
            assert 0 < row["slowdown"] <= FIG13_MAX_OVERHEAD + 1e-9


class TestFig14:
    def test_expected_events(self):
        table = run_experiment("fig14")
        assert "shutdown" in table.row("Raspberry Pi 3B")["events"]
        assert "fan_on" in table.row("Jetson TX2")["events"]
        assert "fan_on" in table.row("Jetson Nano")["events"]
        assert table.row("EdgeTPU")["events"] == "steady"
        assert table.row("Movidius NCS")["events"] == "steady"
