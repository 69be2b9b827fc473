"""Neurosurgeon-style splits: the cut columns and their lowering."""

import pytest

from repro.distribution import cut_columns, load_link, lower_split
from repro.runtime import Scenario, default_runner


def _sessions(model, edge_device, remote_device, edge_framework):
    runner = default_runner()
    return (runner.session(Scenario(model, edge_device, edge_framework)),
            runner.session(Scenario(model, remote_device, "PyTorch")))


def _columns(model="MobileNet-v2", edge_device="Jetson TX2",
             remote_device="GTX Titan X", link="wifi",
             edge_framework="PyTorch"):
    edge, remote = _sessions(model, edge_device, remote_device, edge_framework)
    return cut_columns(edge.plan, remote.plan,
                       edge.deployed.graph.table.cut_bytes, load_link(link))


def _stays_local(columns) -> bool:
    return columns.best_index() == len(columns) - 1


def _offload_speedup(columns) -> float:
    """Best split latency improvement over staying fully on the edge."""
    total_s = columns.total_s
    return total_s[-1] / total_s[columns.best_index()]


class TestSweep:
    def test_covers_all_cuts(self):
        edge, _ = _sessions("MobileNet-v2", "Jetson TX2", "GTX Titan X",
                            "PyTorch")
        columns = _columns()
        assert len(columns) == len(edge.deployed.graph.schedulable_ops()) + 1

    def test_endpoints(self):
        columns = _columns()
        assert columns.edge_s[0] == 0.0  # all remote
        assert columns.transfer_s[0] > 0.0
        assert columns.remote_s[-1] == 0.0  # all edge
        assert columns.transfer_s[-1] == 0.0

    def test_edge_time_monotone_in_cut_depth(self):
        edge_times = _columns().edge_s.tolist()
        assert edge_times == sorted(edge_times)

    def test_mismatched_models_rejected(self):
        with pytest.raises(ValueError, match="one model"):
            lower_split(Scenario("ResNet-18", "Jetson TX2", "PyTorch"),
                        Scenario("ResNet-50", "GTX Titan X", "PyTorch"),
                        "wifi")


class TestBestPlan:
    def test_slow_edge_offloads_everything(self):
        """RPi-class edge: any remote plan beats 45 s of local VGG16."""
        columns = _columns("VGG16", edge_device="Raspberry Pi 3B",
                           remote_device="GTX Titan X", link="wifi")
        assert columns.best_index() == 0
        assert _offload_speedup(columns) > 50

    def test_fast_edge_slow_link_stays_local(self):
        """TX2 over bluetooth: shipping 600 KB of input costs seconds."""
        columns = _columns("MobileNet-v2", link="bluetooth")
        assert _stays_local(columns)
        assert _offload_speedup(columns) == pytest.approx(1.0)

    def test_fast_link_flips_the_decision(self):
        assert _stays_local(_columns("ResNet-50", link="bluetooth"))
        assert not _stays_local(_columns("ResNet-50", link="ethernet"))

    def test_best_never_worse_than_endpoints(self):
        for link in ("wifi", "lte", "ethernet"):
            columns = _columns("ResNet-50", link=link)
            total_s = columns.total_s
            best = total_s[columns.best_index()]
            assert best <= total_s[-1] + 1e-12
            assert best <= total_s[0] + 1e-12

    def test_describe(self):
        text = lower_split(Scenario("MobileNet-v2", "Jetson TX2", "PyTorch"),
                           Scenario("MobileNet-v2", "GTX Titan X", "PyTorch"),
                           "wifi").describe()
        assert text.startswith("split over wifi")
        assert "ms" in text
        assert "stage 0: Jetson TX2" in text and "stage 1: GTX Titan X" in text
