"""Queue-depth autoscaling and admission control."""

import numpy as np
import pytest

from repro.fleet import AdmissionControl, Autoscaler, Cluster, PoolSpec, resolve_profiles
from repro.runtime import Scenario

_SCENARIO = Scenario("ResNet-18", "Jetson Nano", "TensorRT")


@pytest.fixture(scope="module")
def profile():
    pool = PoolSpec(name="p", replicas=1, scenario=_SCENARIO)
    return resolve_profiles([pool])["p"]


def _nodes(profile, count):
    """A one-pool cluster of ``count`` nodes."""
    pool = PoolSpec(name="p", replicas=count, scenario=_SCENARIO)
    return Cluster([pool], {"p": profile})


def _queue(nodes, index, count):
    """Assign ``count`` requests at t=0 to node ``index``."""
    quotas = np.zeros(len(nodes), dtype=np.int64)
    quotas[index] = count
    nodes.assign(quotas, np.zeros(count))


class TestAdmissionControl:
    def test_unbounded_by_default(self):
        assert AdmissionControl().headroom(10**9) == float("inf")

    def test_headroom_counts_down_and_floors_at_zero(self):
        admission = AdmissionControl(max_queue_per_node=4)
        assert admission.headroom(1) == 3.0
        assert admission.headroom(4) == 0.0
        assert admission.headroom(9) == 0.0
        # Elementwise over a routing view's outstanding counts.
        assert admission.headroom(np.array([1.0, 4.0, 9.0])).tolist() == [
            3.0, 0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionControl(max_queue_per_node=0)

    @pytest.mark.parametrize("bound", [float("nan"), 2.5, True, 4.0])
    def test_bound_must_be_an_integer(self, bound):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            AdmissionControl(bound)


class TestAutoscaler:
    def test_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(high_depth=1.0, low_depth=2.0)
        with pytest.raises(ValueError):
            Autoscaler(min_replicas=0)
        with pytest.raises(ValueError):
            Autoscaler(cooldown_epochs=-1)

    def test_scales_up_on_deep_queues_and_charges_init_time(self, profile):
        nodes = _nodes(profile, 2)
        nodes.active[1] = False
        _queue(nodes, 0, 10)  # depth 10 > high_depth 8
        scaler = Autoscaler(cooldown_epochs=0)
        assert scaler.scale("p", nodes, now_s=5.0) == 1
        assert nodes.active[1]
        assert nodes.available_at_s[1] == pytest.approx(
            5.0 + profile.init_time_s)

    def test_scales_down_the_quietest_node(self, profile):
        nodes = _nodes(profile, 3)
        _queue(nodes, 0, 1)
        scaler = Autoscaler(cooldown_epochs=0)
        assert scaler.scale("p", nodes, now_s=0.0) == -1
        # Depth ties between nodes 1 and 2 break by index.
        assert nodes.active.tolist() == [True, False, True]

    def test_min_replicas_floor_holds(self, profile):
        nodes = _nodes(profile, 2)
        nodes.active[1] = False
        scaler = Autoscaler(min_replicas=1, cooldown_epochs=0)
        assert scaler.scale("p", nodes, now_s=0.0) == 0
        assert nodes.active[0]

    def test_cooldown_spaces_actions(self, profile):
        nodes = _nodes(profile, 3)
        nodes.active[1:] = False
        _queue(nodes, 0, 20)
        scaler = Autoscaler(cooldown_epochs=2)
        assert scaler.scale("p", nodes, 0.0) == 1
        assert scaler.scale("p", nodes, 1.0) == 0  # cooling down
        assert scaler.scale("p", nodes, 2.0) == 0
        assert scaler.scale("p", nodes, 3.0) == 1

    def test_all_shutdown_pool_is_left_alone(self, profile):
        nodes = _nodes(profile, 2)
        nodes.shutdown[:] = True
        nodes.active[:] = False
        assert Autoscaler(cooldown_epochs=0).scale("p", nodes, 0.0) == 0

    def test_reset_clears_cooldowns(self, profile):
        nodes = _nodes(profile, 2)
        nodes.active[1] = False
        _queue(nodes, 0, 20)
        scaler = Autoscaler(cooldown_epochs=5)
        assert scaler.scale("p", nodes, 0.0) == 1
        nodes.active[1] = False
        scaler.reset()
        assert scaler.scale("p", nodes, 1.0) == 1
