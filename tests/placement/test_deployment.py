"""Deployment: the one type every serving layer speaks."""

import math

import pytest

from repro.placement import Deployment, StageSpec
from repro.runtime import Scenario


def _scenario(device="Jetson Nano", framework="TensorRT", model="ResNet-18"):
    return Scenario(model, device, framework)


def _split(edge_s=0.1, transfer_s=0.02, remote_s=0.05, link="wifi"):
    head = StageSpec(scenario=_scenario("Raspberry Pi 3B", "TFLite"),
                     op_names=("conv1", "conv2"), compute_s=edge_s,
                     transfer_s=transfer_s, transfer_bytes=4096,
                     power_w=3.0, idle_w=1.5)
    tail = StageSpec(scenario=_scenario("GTX Titan X", "PyTorch"),
                     op_names=("fc",), compute_s=remote_s,
                     power_w=150.0, idle_w=15.0)
    return Deployment(kind="split", link=link, stages=(head, tail))


class TestStageSpec:
    def test_service_is_compute_plus_egress(self):
        stage = StageSpec(scenario=_scenario(), op_names=None,
                          compute_s=0.2, transfer_s=0.05)
        assert stage.service_s == pytest.approx(0.25)

    def test_energy_is_active_power_times_compute(self):
        stage = StageSpec(scenario=_scenario(), op_names=None,
                          compute_s=0.5, power_w=4.0)
        assert stage.energy_j == pytest.approx(2.0)

    def test_span_strings(self):
        whole = StageSpec(scenario=_scenario(), op_names=None, compute_s=1.0)
        ship = StageSpec(scenario=_scenario(), op_names=(), compute_s=0.0,
                         transfer_s=0.1, transfer_bytes=1)
        ranged = StageSpec(scenario=_scenario(), op_names=("a", "b", "c"),
                           compute_s=1.0)
        assert whole.span == "all"
        assert ship.span == "input"
        assert ranged.span == "a..c"

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError, match="compute_s"):
            StageSpec(scenario=_scenario(), op_names=None, compute_s=-1.0)
        with pytest.raises(ValueError, match="transfer_s"):
            StageSpec(scenario=_scenario(), op_names=None, compute_s=1.0,
                      transfer_s=-0.1)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("field", ["compute_s", "transfer_s", "power_w",
                                       "idle_w", "init_time_s"])
    def test_numbers_must_be_finite_and_non_negative(self, field, value):
        fields = {"compute_s": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a finite number >= 0"):
            StageSpec(scenario=_scenario(), op_names=None, **fields)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Deployment(kind="mesh", stages=(StageSpec(
                scenario=_scenario(), op_names=None, compute_s=1.0),))

    def test_single_with_two_stages_rejected(self):
        stage = StageSpec(scenario=_scenario(), op_names=None, compute_s=1.0)
        with pytest.raises(ValueError, match="exactly one stage"):
            Deployment(kind="single", stages=(stage, stage))

    def test_single_with_link_rejected(self):
        stage = StageSpec(scenario=_scenario(), op_names=None, compute_s=1.0)
        with pytest.raises(ValueError, match="no link"):
            Deployment(kind="single", link="wifi", stages=(stage,))

    def test_multi_stage_needs_a_link(self):
        with pytest.raises(ValueError, match="link"):
            Deployment(kind="split", link=None,
                       stages=_split().stages)

    def test_last_stage_must_not_transfer(self):
        head, tail = _split().stages
        leaky = StageSpec(scenario=tail.scenario, op_names=tail.op_names,
                          compute_s=tail.compute_s, transfer_s=0.01,
                          transfer_bytes=8)
        with pytest.raises(ValueError, match="no outgoing transfer"):
            Deployment(kind="split", link="wifi", stages=(head, leaky))

    def test_mixed_models_rejected(self):
        head, _ = _split().stages
        other = StageSpec(scenario=_scenario(model="VGG16"), op_names=("fc",),
                          compute_s=0.1)
        with pytest.raises(ValueError, match="one model"):
            Deployment(kind="split", link="wifi", stages=(head, other))


class TestAggregates:
    def test_latency_is_sum_of_services(self):
        deployment = _split(edge_s=0.1, transfer_s=0.02, remote_s=0.05)
        assert deployment.latency_s == pytest.approx(0.17)

    def test_throughput_set_by_slowest_stage(self):
        deployment = _split(edge_s=0.1, transfer_s=0.02, remote_s=0.05)
        assert deployment.bottleneck_s == pytest.approx(0.12)
        assert deployment.throughput_rps == pytest.approx(1.0 / 0.12)

    def test_energy_sums_stage_active_energy(self):
        deployment = _split(edge_s=0.1, remote_s=0.05)
        assert deployment.energy_per_inference_j == pytest.approx(
            3.0 * 0.1 + 150.0 * 0.05)

    def test_single_helper_degrades_cleanly(self):
        single = Deployment.single(_scenario(), compute_s=0.3, power_w=5.0)
        assert single.is_single_node
        assert single.devices == ("Jetson Nano",)
        assert single.latency_s == pytest.approx(0.3)
        assert single.throughput_rps == pytest.approx(1.0 / 0.3)

    def test_key_distinguishes_kind_link_and_stages(self):
        assert _split().key != _split(link="lte").key
        assert _split().key == _split().key
        assert Deployment.single(_scenario(), compute_s=0.3).key != _split().key

    def test_key_is_computed_once_and_stays_out_of_pickles(self):
        import pickle
        from dataclasses import replace

        deployment = _split()
        before = pickle.dumps(deployment)
        key = deployment.key
        assert deployment.key is key
        assert pickle.dumps(deployment) == before
        assert pickle.loads(before).key == key
        relinked = replace(deployment, link="lan")
        assert relinked.key == key.replace("|wifi|", "|lan|")
        assert relinked != deployment and _split() == deployment


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        for deployment in (_split(),
                           Deployment.single(_scenario(), compute_s=0.3)):
            assert Deployment.from_dict(deployment.to_dict()) == deployment

    def test_describe_names_every_stage_device(self):
        text = _split().describe()
        assert "Raspberry Pi 3B" in text and "GTX Titan X" in text
        assert "bottleneck" in text
