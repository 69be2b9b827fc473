"""Heterogeneous pipeline partitioning."""

import pytest

from repro.distribution import load_link, lower_pipeline
from repro.runtime import Scenario, default_runner
from tests.distribution.reference import stage_fields


def _scenario(device_name: str, framework_name: str = "TensorFlow",
              model: str = "TinyYolo") -> Scenario:
    return Scenario(model, device_name, framework_name)


def _pipeline(chain, link):
    return lower_pipeline(chain, link, runner=default_runner())


class TestHeterogeneous:
    def test_matches_homogeneous_for_identical_devices(self):
        """Positions spelled apart open a session each; on identical
        devices they partition exactly as one shared session does."""
        link = load_link("wifi")
        homogeneous = _pipeline([_scenario("Raspberry Pi 3B")] * 3, link)
        spellings = ("Raspberry Pi 3B", "raspberry pi 3b", "RaspberryPi3B")
        chain = [_scenario(device) for device in spellings]
        assert len(set(chain)) == 3
        hetero = _pipeline(chain, link)
        assert stage_fields(hetero) == stage_fields(homogeneous)
        assert hetero.bottleneck_s == homogeneous.bottleneck_s

    def test_fast_device_takes_the_heavy_stage(self):
        """RPi + TX2 team: the DP hands the TX2 most of the work."""
        rpi_stage, tx2_stage = _pipeline(
            [_scenario("Raspberry Pi 3B", "PyTorch"),
             _scenario("Jetson TX2", "PyTorch")], load_link("wifi")).stages
        assert len(tx2_stage.op_names) > len(rpi_stage.op_names)

    def test_adding_a_tx2_beats_adding_an_rpi(self):
        link = load_link("wifi")
        rpi = _scenario("Raspberry Pi 3B", "PyTorch")
        two_rpis = _pipeline([rpi, rpi], link)
        rpi_plus_tx2 = _pipeline([rpi, _scenario("Jetson TX2", "PyTorch")],
                                 link)
        assert rpi_plus_tx2.throughput_rps > two_rpis.throughput_rps

    def test_device_order_matters(self):
        """The pipeline is ordered: input arrives at stage 0, so putting
        the slow device late changes which stage pays transfers."""
        link = load_link("bluetooth")
        rpi = _scenario("Raspberry Pi 3B", "PyTorch")
        tx2 = _scenario("Jetson TX2", "PyTorch")
        rpi_first = _pipeline([rpi, tx2], link)
        tx2_first = _pipeline([tx2, rpi], link)
        # Both are valid plans over the same resources; they need not tie.
        assert rpi_first.stages[0].op_names != tx2_first.stages[0].op_names

    def test_stage_coverage_contiguous(self):
        deployment = _pipeline(
            [_scenario("Raspberry Pi 3B"), _scenario("Jetson TX2"),
             _scenario("Jetson Nano")], load_link("wifi"))
        graph = default_runner().session(_scenario("Raspberry Pi 3B")).deployed.graph
        flattened = [name for stage in deployment.stages
                     for name in stage.op_names]
        assert flattened == [op.name for op in graph.schedulable_ops()]

    def test_mixed_models_rejected(self):
        with pytest.raises(ValueError, match="share one model"):
            _pipeline([_scenario("Raspberry Pi 3B"),
                       _scenario("Jetson TX2", model="ResNet-18")],
                      load_link("wifi"))

    def test_mixed_fusion_rejected(self):
        """TFLite fuses, TensorFlow does not: schedules diverge."""
        with pytest.raises(ValueError, match="op schedule"):
            _pipeline([_scenario("Raspberry Pi 3B", "TensorFlow"),
                       _scenario("Raspberry Pi 3B", "TFLite")],
                      load_link("wifi"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _pipeline([], load_link("wifi"))
