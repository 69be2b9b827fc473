"""Lowering rules: split/pipeline Deployments hold the scalar oracles'
numbers exactly.

The per-cut sweep and the pipeline DP of ``tests/distribution/reference.py``
are the ground truth; every lowered stage must equal them at ZERO float
tolerance — that exactness is what lets the fleet serve what the columns
and the DP price.
"""

from dataclasses import replace

import pytest

from repro.distribution import (
    load_link,
    lower_pipeline,
    lower_split,
    split_deployments,
)
from repro.placement import Deployment
from repro.runtime import Scenario, default_runner
from tests.distribution.reference import (
    reference_pipeline,
    reference_split_sweep,
    stage_fields,
)

EDGE = Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite")
REMOTE = Scenario("MobileNet-v2", "GTX Titan X", "PyTorch")


@pytest.fixture(scope="module")
def runner():
    return default_runner()


@pytest.fixture(scope="module")
def reference(runner):
    return reference_split_sweep(runner.session(EDGE).deployed,
                                 runner.session(REMOTE).deployed,
                                 load_link("wifi"))


class TestSplitLowering:
    def test_every_cut_projects_back_exactly(self, runner, reference):
        """All cuts, zero tolerance: each stage holds the cut's legs."""
        lowered = split_deployments(EDGE, REMOTE, "wifi", runner=runner)
        assert len(lowered) == len(reference.cuts)
        for cut_index, deployment in enumerate(lowered[:-1]):
            assert stage_fields(deployment) == reference.split_stages(cut_index)

    def test_default_cut_is_the_latency_optimal_one(self, runner, reference):
        deployment = lower_split(EDGE, REMOTE, "wifi", runner=runner)
        best = reference.best_index()
        if deployment.kind == "split":
            assert stage_fields(deployment) == reference.split_stages(best)
        else:  # all-edge optimum normalizes to a single-node deployment
            assert best == len(reference.cuts) - 1

    def test_all_edge_cut_normalizes_to_single_node(self, runner, reference):
        all_edge = lower_split(EDGE, REMOTE, "wifi",
                               cut_index=len(reference.cuts) - 1,
                               runner=runner)
        assert all_edge.kind == "single"
        assert all_edge.devices == ("Raspberry Pi 3B",)
        assert all_edge.stages[0].op_names is None
        assert all_edge.link is None
        assert all_edge.latency_s == reference.total_s[-1]

    def test_all_remote_cut_ships_the_input(self, runner):
        all_remote = lower_split(EDGE, REMOTE, "wifi", cut_index=0,
                                 runner=runner)
        assert all_remote.kind == "split"
        head, tail = all_remote.stages
        assert head.op_names == () and head.compute_s == pytest.approx(0.0)
        assert head.transfer_bytes > 0
        assert tail.scenario.device == "GTX Titan X"

    def test_stages_carry_power_and_init_pricing(self, runner):
        deployment = lower_split(EDGE, REMOTE, "wifi", cut_index=5,
                                 runner=runner)
        for stage in deployment.stages:
            assert stage.power_w > 0
            assert stage.idle_w > 0
            assert stage.init_time_s > 0

    @pytest.mark.parametrize("which", ["minus-one", "minus-count",
                                       "past-end"])
    def test_out_of_range_cut_index_rejected(self, runner, reference, which):
        """Cuts run 0..N; negative indices must not alias from the end."""
        count = len(reference.cuts)  # N + 1 cuts for N schedulable ops
        cut_index = {"minus-one": -1, "minus-count": -count,
                     "past-end": count}[which]
        with pytest.raises(ValueError, match=rf"\[0, {count - 1}\]"):
            lower_split(EDGE, REMOTE, "wifi", cut_index=cut_index,
                        runner=runner)

    def test_lowered_deployment_survives_json(self, runner):
        deployment = lower_split(EDGE, REMOTE, "lte", cut_index=3,
                                 runner=runner)
        clone = Deployment.from_dict(deployment.to_dict())
        assert clone == deployment
        assert stage_fields(clone) == stage_fields(deployment)


class TestPipelineLowering:
    CHAIN = (Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite"),
             Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite"))

    def test_projection_equals_the_partitioner_exactly(self, runner):
        deployment = lower_pipeline(self.CHAIN, "lan", runner=runner)
        assert stage_fields(deployment) == reference_pipeline(
            [runner.session(s).deployed for s in self.CHAIN], load_link("lan"))

    def test_heterogeneous_chain_lowerable(self, runner):
        chain = (Scenario("MobileNet-v2", "Jetson Nano", "PyTorch"),
                 Scenario("MobileNet-v2", "Jetson TX2", "PyTorch"))
        deployment = lower_pipeline(chain, "wifi", runner=runner)
        assert deployment.kind == "pipeline"
        assert deployment.devices == ("Jetson Nano", "Jetson TX2")
        assert stage_fields(deployment) == reference_pipeline(
            [runner.session(s).deployed for s in chain], load_link("wifi"))

    def test_repeated_scenarios_open_one_session(self, runner, monkeypatch):
        from repro.engine import InferenceSession, cache

        scenario = self.CHAIN[0]
        cache.clear_caches()
        opened = []
        original = InferenceSession.__init__

        def counting(session, *args, **kwargs):
            opened.append(session)
            original(session, *args, **kwargs)

        monkeypatch.setattr(InferenceSession, "__init__", counting)
        deployment = lower_pipeline([scenario] * 3, "lan", runner=runner)
        assert len(opened) == 1
        monkeypatch.undo()
        assert deployment.devices == (scenario.device,) * 3
        assert stage_fields(deployment) == reference_pipeline(
            [runner.session(scenario).deployed] * 3, load_link("lan"))
        assert deployment == lower_pipeline(
            [scenario, replace(scenario), replace(scenario)], "lan",
            runner=runner)

    def test_interior_stages_record_crossing_bytes(self, runner):
        deployment = lower_pipeline(self.CHAIN, "lan", runner=runner)
        assert deployment.stages[0].transfer_bytes > 0
        assert deployment.stages[-1].transfer_bytes == 0

    def test_single_scenario_chain_rejected(self, runner):
        with pytest.raises(ValueError, match="at least two"):
            lower_pipeline(self.CHAIN[:1], "lan", runner=runner)

    def test_lowered_pipeline_survives_json(self, runner):
        deployment = lower_pipeline([self.CHAIN[0]] * 3, "lan", runner=runner)
        clone = Deployment.from_dict(deployment.to_dict())
        assert clone == deployment
        assert clone.kind == "pipeline" and clone.link == "lan"
        assert stage_fields(clone) == stage_fields(deployment)
