"""Energy-delay metrics."""

import pytest

from repro.analysis import energy_delay_metrics, energy_delay_table
from repro.measurement.energy import active_power_w


class TestMetrics:
    def test_definitions(self, session_factory):
        session = session_factory("ResNet-18", "Jetson Nano", "TensorRT")
        energy, edp, ed2p = energy_delay_metrics(session)
        delay = session.latency_s
        assert energy == pytest.approx(active_power_w(session) * delay)
        assert edp == pytest.approx(energy * delay)
        assert ed2p == pytest.approx(energy * delay * delay)

    def test_faster_same_power_has_lower_edp(self, session_factory):
        fast = session_factory("MobileNet-v2", "Jetson Nano", "TensorRT")
        slow = session_factory("Inception-v4", "Jetson Nano", "TensorRT")
        assert energy_delay_metrics(fast)[1] < energy_delay_metrics(slow)[1]


class TestTable:
    PAIRS = (
        ("Raspberry Pi 3B", "TFLite"),
        ("Jetson TX2", "PyTorch"),
        ("Jetson Nano", "TensorRT"),
        ("EdgeTPU", "TFLite"),
        ("Movidius NCS", "NCSDK"),
        ("GTX Titan X", "PyTorch"),
    )

    @pytest.fixture(scope="class")
    def table(self):
        return energy_delay_table("MobileNet-v2", self.PAIRS)

    def test_sorted_by_edp(self, table):
        edps = table.column("edp_mj_ms")
        assert edps == sorted(edps)

    def test_edgetpu_wins_mobilenet(self, table):
        """Lowest latency AND near-lowest energy: EdgeTPU tops the ranking."""
        assert table.labels()[0] == "EdgeTPU"

    def test_rpi_last(self, table):
        assert table.labels()[-1] == "Raspberry Pi 3B"

    def test_failures_skipped(self):
        pairs = (("EdgeTPU", "TFLite"), ("EdgeTPU", "PyTorch"))  # second fails
        table = energy_delay_table("MobileNet-v2", pairs)
        assert len(table) == 1
