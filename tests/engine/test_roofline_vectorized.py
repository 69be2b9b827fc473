"""The vectorized pricing path agrees with the scalar reference bit-for-bit.

Every plan is priced by one numpy pass (``lower_plan_specs``); these tests
pin it against the scalar per-op formula kept in ``tests/engine/reference``
on deployed zoo graphs: identical IEEE-754 results for every op, datatype,
batch size and ablation switch.
"""

from __future__ import annotations

import pytest

from repro.engine.roofline import RooflineInputs
from repro.frameworks import load_framework
from repro.graphs import ops as O
from repro.graphs.tensor import TensorShape
from repro.hardware import load_device
from repro.models import load_model
from tests.engine.reference import kernel_efficiency, price, time_op


def _inputs(**overrides) -> RooflineInputs:
    defaults = dict(
        peak_macs_per_s=665.6e9,
        memory_bandwidth_bytes_per_s=25.6e9,
        weight_bandwidth_bytes_per_s=25.6e9,
        dispatch_overhead_s=12e-6,
    )
    defaults.update(overrides)
    return RooflineInputs(**defaults)


def _assert_bit_identical(ops, inputs, efficiencies, **kwargs):
    vectorized = price(ops, inputs, efficiencies, **kwargs)
    assert len(vectorized) == len(ops)
    for op, efficiency, batched in zip(ops, efficiencies, vectorized):
        scalar = time_op(op, inputs, efficiency, **kwargs)
        assert batched.op is op
        # Exact equality, not approx: both paths must run the same
        # float64 operations in the same order.
        assert batched.compute_s == scalar.compute_s, op.name
        assert batched.memory_s == scalar.memory_s, op.name
        assert batched.dispatch_s == scalar.dispatch_s, op.name
        assert batched.bound == scalar.bound, op.name


class TestAgreementOnModels:
    @pytest.mark.parametrize("model_name,framework_name,device_name", [
        ("ResNet-18", "PyTorch", "Jetson TX2"),
        ("MobileNet-v2", "TFLite", "Raspberry Pi 3B"),
        ("Inception-v4", "TensorFlow", "Jetson Nano"),
        ("VGG16", "PyTorch", "Raspberry Pi 3B"),  # paged weights
        ("MobileNet-v2", "TensorRT", "Jetson Nano"),
    ])
    def test_deployed_graphs_bit_identical(self, model_name, framework_name,
                                           device_name):
        deployed = load_framework(framework_name).deploy(
            load_model(model_name), load_device(device_name))
        ops = deployed.graph.schedulable_ops()
        efficiencies = [
            kernel_efficiency(deployed.framework, op, deployed.unit, deployed.graph)
            for op in ops
        ]
        _assert_bit_identical(ops, _inputs(), efficiencies,
                              exploit_sparsity=deployed.exploit_sparsity,
                              per_op_overhead_s=deployed.per_op_overhead_s)

    @pytest.mark.parametrize("batch_size", [1, 4, 32])
    def test_batch_sizes(self, batch_size):
        deployed = load_framework("PyTorch").deploy(
            load_model("ResNet-18"), load_device("Jetson TX2"))
        ops = deployed.graph.schedulable_ops()
        efficiencies = [0.4 + 0.01 * (i % 7) for i in range(len(ops))]
        _assert_bit_identical(ops, _inputs(), efficiencies,
                              batch_size=batch_size, per_op_overhead_s=3e-6)

    def test_pure_flop_ablation(self):
        deployed = load_framework("PyTorch").deploy(
            load_model("MobileNet-v2"), load_device("Jetson TX2"))
        ops = deployed.graph.schedulable_ops()
        timings = price(ops, _inputs(), [0.5] * len(ops),
                        include_memory_term=False)
        assert all(t.memory_s == 0.0 for t in timings)
        _assert_bit_identical(ops, _inputs(), [0.5] * len(ops),
                              include_memory_term=False)

    def test_sparsity(self):
        graph = load_model("ResNet-18")
        for op in graph.ops:
            if hasattr(op, "weight_sparsity"):
                op.weight_sparsity = 0.6
        ops = graph.schedulable_ops()
        _assert_bit_identical(ops, _inputs(), [0.37] * len(ops),
                              exploit_sparsity=True)


class TestEdgeCasesAndValidation:
    def test_empty_ops(self):
        assert price([], _inputs(), []) == []

    def test_zero_mac_op_exact_zero_compute(self):
        flat = O.Flatten("f", [O.Input("in", TensorShape(4, 4, 4))])
        (timing,) = price([flat], _inputs(), [0.5])
        assert timing.compute_s == 0.0
        assert timing.memory_s > 0.0

    def test_nonpositive_efficiency_rejected(self):
        conv = O.Conv2D("c", [O.Input("in", TensorShape(3, 8, 8))], 8, 3)
        with pytest.raises(ValueError, match="efficiency"):
            price([conv], _inputs(), [0.0])

    def test_results_are_plain_floats(self):
        conv = O.Conv2D("c", [O.Input("in", TensorShape(3, 8, 8))], 8, 3)
        (timing,) = price([conv], _inputs(), [0.5])
        assert type(timing.compute_s) is float
        assert type(timing.memory_s) is float
        assert type(timing.dispatch_s) is float
