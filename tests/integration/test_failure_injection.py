"""Failure injection: every error path fails loudly and specifically.

A simulation substrate is only trustworthy if broken inputs cannot produce
quietly-wrong numbers.  These tests inject faults at each layer and assert
the library refuses with the right exception and message — never a silent
fallback.
"""


import numpy as np
import pytest

from repro.core.errors import (
    CompatibilityError,
    ConversionError,
    IncompatibleModelError,
    OutOfMemoryError,
    ReproError,
    UnknownEntryError,
)
from repro.engine import EngineConfig, InferenceSession
from repro.frameworks import load_framework
from repro.hardware import load_device
from repro.models import load_model


class TestRegistryFaults:
    @pytest.mark.parametrize("loader,bogus", [
        (load_model, "ResNet-9000"),
        (load_device, "Jetson Orin"),
        (load_framework, "TensorFlow 2"),
    ])
    def test_unknown_names_raise_with_suggestions(self, loader, bogus):
        with pytest.raises(UnknownEntryError):
            loader(bogus)


class TestGraphFaults:
    def test_cycle_free_by_construction(self):
        """The IR cannot express a cycle: consuming an undefined op fails."""
        from repro.graphs import Graph, ops as O
        from repro.graphs.tensor import TensorShape

        inp = O.Input("in", TensorShape(4))
        dense = O.Dense("d", [inp], 4)
        late = O.Dense("late", [dense], 4)
        with pytest.raises(ValueError, match="topologically"):
            Graph("bad", [inp, late, dense])

    def test_corrupted_serialization_rejected(self):
        from repro.graphs.serialize import graph_from_dict, graph_to_dict

        payload = graph_to_dict(load_model("ResNet-18"))
        conv = next(entry for entry in payload["ops"] if entry["type"] == "Conv2D")
        conv["attrs"]["out_channels"] = -1
        with pytest.raises((ValueError, KeyError)):
            graph_from_dict(payload)


class TestDeploymentFaults:
    def test_every_table_v_failure_is_typed(self):
        cases = [
            ("VGG16", "Raspberry Pi 3B", "TensorFlow", OutOfMemoryError),
            ("SSD MobileNet-v1", "Raspberry Pi 3B", "TFLite", IncompatibleModelError),
            ("ResNet-18", "EdgeTPU", "TFLite", ConversionError),
            ("C3D", "Movidius NCS", "NCSDK", IncompatibleModelError),
            ("CifarNet 32x32", "EdgeTPU", "PyTorch", CompatibilityError),
        ]
        for model, device, framework, expected in cases:
            with pytest.raises(expected):
                load_framework(framework).deploy(load_model(model), load_device(device))

    def test_failure_messages_cite_the_paper_mechanism(self):
        with pytest.raises(OutOfMemoryError, match="static graph"):
            load_framework("TensorFlow").deploy(load_model("VGG16"),
                                                load_device("Raspberry Pi 3B"))
        with pytest.raises(ConversionError, match="EdgeTPU compiler"):
            load_framework("TFLite").deploy(load_model("AlexNet"),
                                            load_device("EdgeTPU"))

    def test_all_failures_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            load_framework("TensorRT").deploy(load_model("ResNet-18"),
                                              load_device("Raspberry Pi 3B"))


class TestEngineFaults:
    def test_poisoned_efficiency_rejected(self, session_factory):
        session = session_factory("ResNet-18", "Jetson TX2", "PyTorch")
        with pytest.raises(ValueError, match="efficiency"):
            InferenceSession(session.deployed, efficiency_scale=0.0)

    def test_batch_oom_names_the_batch(self):
        deployed = load_framework("PyTorch").deploy(load_model("VGG16"),
                                                    load_device("GTX Titan X"))
        with pytest.raises(OutOfMemoryError, match="batch 100000"):
            InferenceSession(deployed, config=EngineConfig(batch_size=100000))


class TestInstrumentFaults:
    def test_meters_reject_impossible_power(self):
        from repro.measurement.power_meter import PowerAnalyzer, USBMultimeter

        with pytest.raises(ValueError):
            USBMultimeter().sample(-2.0)
        with pytest.raises(ValueError):
            PowerAnalyzer().record(lambda t: 1.0, duration_s=-5.0)

    def test_thermal_runaway_is_latched_not_hidden(self):
        """Once a device trips, it stays tripped and stops drawing power."""
        device = load_device("Raspberry Pi 3B")
        simulator = device.thermal_simulator()
        simulator.step(50.0, 1e6)  # absurd power injection
        assert simulator.shutdown
        before = simulator.temperature_c
        simulator.step(50.0, 100.0)  # power is ignored after shutdown
        assert simulator.temperature_c < before


class TestServingFaults:
    def test_unsorted_arrivals_rejected(self):
        from repro.fleet import FleetSimulation, PoolSpec
        from repro.runtime import Scenario

        simulation = FleetSimulation([PoolSpec(
            name="nano", replicas=1,
            scenario=Scenario("ResNet-18", "Jetson Nano", "TensorRT"))])
        with pytest.raises(ValueError, match="sorted"):
            simulation.run(np.array([1.0, 0.1]))

    def test_link_with_total_loss_unrepresentable(self):
        from repro.distribution.network import NetworkLink

        with pytest.raises(ValueError):
            NetworkLink("dead", 1e6, 0.0, reliability=0.0)
