"""InferenceSession / ExecutionPlan behaviour."""

import pytest

from repro.engine import InferenceSession
from repro.engine.executor import resolve_roofline_inputs
from repro.engine.roofline import OpTiming
from repro.frameworks import load_framework
from repro.hardware import load_device
from repro.models import load_model


def _session(model="ResNet-18", device="Jetson TX2", framework="PyTorch",
             scale=None) -> InferenceSession:
    deployed = load_framework(framework).deploy(load_model(model), load_device(device))
    return InferenceSession(deployed, efficiency_scale=scale)


class TestPlan:
    def test_latency_decomposition_sums(self):
        session = _session(scale=1.0)
        plan = session.plan
        per_op = sum(t.latency_s for t in plan.timings)
        assert plan.latency_s == pytest.approx(
            per_op + plan.session_overhead_s + plan.input_transfer_s)

    def test_plan_covers_schedulable_ops(self):
        session = _session(scale=1.0)
        assert len(session.plan.timings) == len(session.deployed.graph.schedulable_ops())

    def test_plan_stores_timing_columns_not_op_timings(self):
        plan = _session(scale=1.0).plan
        assert plan.latency_s > 0  # totals are cached on the plan
        assert not any(isinstance(value, (OpTiming, list))
                       for value in vars(plan).values())
        for column in (plan.op_compute_s, plan.op_memory_s, plan.op_dispatch_s):
            assert column.shape == (len(plan.ops),)
            assert not column.flags.writeable  # plans are shared via the cache
        first, second = plan.timings, plan.timings
        assert first is not second and first == second
        assert [t.op for t in first] == list(plan.ops)
        assert [t.latency_s for t in first] == plan.op_latency_s.tolist()

    def test_bound_fractions_sum_to_one(self):
        plan = _session(scale=1.0).plan
        assert plan.bound_fraction("compute") + plan.bound_fraction("memory") == pytest.approx(1.0)

    def test_efficiency_scale_monotone(self):
        slow = _session(scale=0.1).latency_s
        fast = _session(scale=10.0).latency_s
        assert fast < slow

    def test_default_scale_resolves_calibration(self):
        from repro.engine.calibration import efficiency_scale

        session = _session()
        assert session.efficiency_scale == efficiency_scale("PyTorch", "Jetson TX2")


class TestStorageModes:
    def test_paged_model_pays_storage_bandwidth(self):
        paged = _session("VGG16", "Raspberry Pi 3B", "PyTorch", scale=1.0)
        assert paged.deployed.is_paged
        weights = paged.deployed.graph.weight_bytes()
        storage_bw = paged.deployed.device.memory.storage_bandwidth_bytes_per_s
        # Memory time is at least the page-in of every weight byte.
        assert paged.plan.memory_s >= weights / storage_bw

    def test_paging_itself_is_the_penalty(self):
        """Flipping the same deployment back to resident must be much
        faster: the paging path, not the model, causes the slowdown."""
        paged = _session("VGG16", "Raspberry Pi 3B", "PyTorch", scale=1.0)
        assert paged.deployed.is_paged
        paged.deployed.storage_mode = "resident"
        resident = InferenceSession(paged.deployed, efficiency_scale=1.0)
        assert paged.latency_s > resident.latency_s
        # The difference is at least the page-in of every weight byte.
        weights = paged.deployed.graph.weight_bytes()
        storage_bw = paged.deployed.device.memory.storage_bandwidth_bytes_per_s
        dram_bw = paged.deployed.device.memory.bandwidth_bytes_per_s
        floor = weights / storage_bw - weights / dram_bw
        assert paged.latency_s - resident.latency_s >= 0.5 * floor

    def test_fabric_spill_considerably_slower_than_ported(self):
        ported = _session("ResNet-18", "PYNQ-Z1", "TVM VTA", scale=1.0)
        spilled = _session("ResNet-50", "PYNQ-Z1", "TVM VTA", scale=1.0)
        ratio = spilled.latency_s / ported.latency_s
        macs_ratio = (spilled.deployed.graph.total_macs
                      / ported.deployed.graph.total_macs)
        # "Considerably slowdowns execution": well beyond the MAC ratio.
        assert ratio > 1.5 * macs_ratio

    def test_on_chip_models_avoid_dram(self):
        small = _session("MobileNet-v2", "EdgeTPU", "TFLite", scale=1.0)
        large = _session("ResNet-50", "EdgeTPU", "TFLite", scale=1.0)
        assert small.deployed.graph.weight_bytes() <= small.deployed.unit.on_chip_buffer_bytes
        assert large.deployed.graph.weight_bytes() > large.deployed.unit.on_chip_buffer_bytes
        # The roofline resolves a faster weight path for the on-chip model.
        assert (resolve_roofline_inputs(small.deployed).weight_bandwidth_bytes_per_s
                > resolve_roofline_inputs(large.deployed).weight_bandwidth_bytes_per_s)


class TestSessionQuantities:
    def test_init_time_excluded_from_latency(self):
        session = _session()
        assert session.init_time_s > session.latency_s

    def test_utilization_in_unit_interval(self):
        for model in ("ResNet-18", "MobileNet-v2", "VGG16"):
            session = _session(model)
            assert 0.0 < session.utilization <= 1.0

    def test_compute_bound_sessions_have_high_utilization(self):
        session = _session("VGG16", "Raspberry Pi 3B", "TFLite")
        assert session.utilization > 0.7

    def test_run_returns_constant_samples(self):
        session = _session()
        samples = session.run(5)
        assert samples == [session.latency_s] * 5

    def test_run_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _session().run(0)

    def test_describe_mentions_latency(self):
        assert "ms/inference" in _session().describe()

    def test_input_transfer_only_with_link(self):
        linked = _session("MobileNet-v2", "Movidius NCS", "NCSDK")
        shared = _session("MobileNet-v2", "Jetson TX2", "PyTorch")
        assert linked.plan.input_transfer_s > 0
        assert shared.plan.input_transfer_s == 0
