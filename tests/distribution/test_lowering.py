"""Lowering rules: split/pipeline plans and Deployments agree exactly.

The legacy planners are the ground truth; the lowered Deployments must
project back onto them by dataclass equality at ZERO float tolerance —
that exactness is what lets the fleet serve what the planners price.
"""

from dataclasses import replace

import pytest

from repro.distribution import (
    SplitPlanner,
    as_pipeline_plan,
    as_split_plan,
    load_link,
    lower_pipeline,
    lower_split,
    partition_pipeline_heterogeneous,
    split_deployments,
)
from repro.placement import Deployment
from repro.runtime import Scenario, default_runner

EDGE = Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite")
REMOTE = Scenario("MobileNet-v2", "GTX Titan X", "PyTorch")


@pytest.fixture(scope="module")
def runner():
    return default_runner()


@pytest.fixture(scope="module")
def reference_plans(runner):
    planner = SplitPlanner(runner.session(EDGE).deployed,
                           runner.session(REMOTE).deployed, load_link("wifi"))
    return planner.sweep()


class TestSplitLowering:
    def test_every_cut_projects_back_exactly(self, runner, reference_plans):
        """All cuts, zero tolerance: the deployment IS the plan."""
        lowered = split_deployments(EDGE, REMOTE, "wifi", runner=runner)
        assert len(lowered) == len(reference_plans)
        for cut_index, deployment in enumerate(lowered[:-1]):
            assert as_split_plan(deployment) == reference_plans[cut_index]

    def test_default_cut_is_the_latency_optimal_one(self, runner,
                                                    reference_plans):
        deployment = lower_split(EDGE, REMOTE, "wifi", runner=runner)
        best = min(reference_plans, key=lambda plan: plan.total_s)
        if deployment.kind == "split":
            assert as_split_plan(deployment) == best
        else:  # all-edge optimum normalizes to a single-node deployment
            assert best.cut.index == len(reference_plans) - 1

    def test_all_edge_cut_normalizes_to_single_node(self, runner,
                                                    reference_plans):
        all_edge = lower_split(EDGE, REMOTE, "wifi",
                               cut_index=len(reference_plans) - 1,
                               runner=runner)
        assert all_edge.kind == "single"
        assert all_edge.devices == ("Raspberry Pi 3B",)
        with pytest.raises(ValueError, match="two-stage split"):
            as_split_plan(all_edge)

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
    def test_out_of_range_cut_index_rejected(self, runner, reference_plans,
                                             which):
        """Cuts run 0..N; negative indices must not alias from the end."""
        count = len(reference_plans)  # N + 1 cuts for N schedulable ops
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
        assert as_split_plan(clone) == as_split_plan(deployment)


class TestPipelineLowering:
    CHAIN = (Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite"),
             Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite"))

    def test_projection_equals_the_partitioner_exactly(self, runner):
        deployment = lower_pipeline(self.CHAIN, "lan", runner=runner)
        reference = partition_pipeline_heterogeneous(
            [runner.session(s).deployed for s in self.CHAIN],
            load_link("lan"))
        assert as_pipeline_plan(deployment) == reference

    def test_heterogeneous_chain_lowerable(self, runner):
        chain = (Scenario("MobileNet-v2", "Jetson Nano", "PyTorch"),
                 Scenario("MobileNet-v2", "Jetson TX2", "PyTorch"))
        deployment = lower_pipeline(chain, "wifi", runner=runner)
        assert deployment.kind == "pipeline"
        assert deployment.devices == ("Jetson Nano", "Jetson TX2")
        reference = partition_pipeline_heterogeneous(
            [runner.session(s).deployed for s in chain], load_link("wifi"))
        assert as_pipeline_plan(deployment) == reference

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
        reference = partition_pipeline_heterogeneous(
            [runner.session(scenario).deployed] * 3, load_link("lan"))
        assert as_pipeline_plan(deployment) == reference
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

    def test_as_pipeline_plan_rejects_other_kinds(self, runner):
        deployment = lower_split(EDGE, REMOTE, "wifi", cut_index=0,
                                 runner=runner)
        with pytest.raises(ValueError, match="pipeline deployment"):
            as_pipeline_plan(deployment)
