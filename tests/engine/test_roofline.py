"""Roofline op timing through the one pricing path, ``lower_plan_specs``.

The scalar formula survives only as the oracle in ``tests/engine/reference``;
``tests/properties/test_engine_properties`` holds the array program to it
bit for bit.
"""

from dataclasses import replace

import pytest

from repro.engine.executor import PlanSpec, lower_plan_specs
from repro.engine.roofline import RooflineInputs
from repro.graphs import ops as O
from repro.graphs.tensor import TensorShape
from tests.engine.reference import time_one


def _conv() -> O.Conv2D:
    source = O.Input("in", TensorShape(64, 28, 28))
    return O.Conv2D("c", [source], 64, 3, use_bias=False)


def _inputs(**overrides) -> RooflineInputs:
    defaults = dict(
        peak_macs_per_s=100e9,
        memory_bandwidth_bytes_per_s=10e9,
        weight_bandwidth_bytes_per_s=10e9,
        dispatch_overhead_s=10e-6,
    )
    defaults.update(overrides)
    return RooflineInputs(**defaults)


class TestRooflineInputs:
    @pytest.mark.parametrize("field", [
        "peak_macs_per_s", "memory_bandwidth_bytes_per_s",
        "weight_bandwidth_bytes_per_s",
    ])
    def test_positive_required(self, field):
        with pytest.raises(ValueError, match=field):
            _inputs(**{field: 0})


class TestTimeOp:
    def test_compute_term(self):
        conv = _conv()
        timing = time_one(conv, _inputs(), efficiency=0.5)
        assert timing.compute_s == pytest.approx(conv.macs / (100e9 * 0.5))

    def test_memory_term(self):
        conv = _conv()
        timing = time_one(conv, _inputs(), efficiency=0.5)
        expected = (conv.weight_bytes() + conv.input_bytes() + conv.output_bytes()) / 10e9
        assert timing.memory_s == pytest.approx(expected)

    def test_latency_is_max_plus_dispatch(self):
        timing = time_one(_conv(), _inputs(), efficiency=0.5, per_op_overhead_s=5e-6)
        assert timing.latency_s == pytest.approx(
            max(timing.compute_s, timing.memory_s) + 10e-6 + 5e-6)

    def test_bound_classification_flips_with_bandwidth(self):
        conv = _conv()
        compute_bound = time_one(conv, _inputs(memory_bandwidth_bytes_per_s=1e12,
                                               weight_bandwidth_bytes_per_s=1e12),
                                 efficiency=0.01)
        memory_bound = time_one(conv, _inputs(memory_bandwidth_bytes_per_s=1e6,
                                              weight_bandwidth_bytes_per_s=1e6),
                                efficiency=1.0)
        assert compute_bound.bound == "compute"
        assert memory_bound.bound == "memory"

    def test_higher_efficiency_never_slower(self):
        conv = _conv()
        slow = time_one(conv, _inputs(), efficiency=0.1)
        fast = time_one(conv, _inputs(), efficiency=0.9)
        assert fast.latency_s <= slow.latency_s

    def test_sparsity_exploitation(self):
        conv = _conv()
        conv.weight_sparsity = 0.9
        dense = time_one(conv, _inputs(), efficiency=0.5, exploit_sparsity=False)
        sparse = time_one(conv, _inputs(), efficiency=0.5, exploit_sparsity=True)
        assert sparse.compute_s < dense.compute_s / 5

    def test_weight_bandwidth_separate_from_io(self):
        conv = _conv()
        paged = time_one(conv, _inputs(weight_bandwidth_bytes_per_s=80e6), efficiency=0.5)
        resident = time_one(conv, _inputs(), efficiency=0.5)
        assert paged.memory_s > resident.memory_s

    def test_zero_mac_op_has_no_compute(self):
        flat = O.Flatten("f", [O.Input("in", TensorShape(4, 4, 4))])
        timing = time_one(flat, _inputs(), efficiency=0.5)
        assert timing.compute_s == 0.0
        assert timing.memory_s > 0.0

    def test_nonpositive_efficiency_rejected(self):
        with pytest.raises(ValueError, match="efficiency"):
            time_one(_conv(), _inputs(), efficiency=0.0)


class TestLowerPlanSpecs:
    def test_no_specs_no_plans(self):
        lowered = lower_plan_specs([])
        assert lowered.plans == [] and lowered.ops == 0

    def test_counters_cover_every_spec(self):
        conv, flat = _conv(), O.Flatten("f", [O.Input("in", TensorShape(4, 4, 4))])
        spec = PlanSpec(ops=(conv,), inputs=_inputs(), efficiencies=(0.5,),
                        exploit_sparsity=False, per_op_overhead_s=0.0, batch_size=1,
                        include_memory_term=True, session_overhead_s=0.0,
                        input_transfer_s=0.0)
        ablated = replace(spec, ops=(flat,), include_memory_term=False)
        lowered = lower_plan_specs([spec, ablated])
        assert [len(plan.timings) for plan in lowered.plans] == [1, 1]
        assert (lowered.ops, lowered.macs) == (2, conv.macs)
        # The ablated plan streams no bytes.
        assert lowered.traffic_bytes == (conv.traffic_weight_bytes(False)
                                         + conv.input_bytes() + conv.output_bytes())
