"""Pool specs, engine-priced service profiles, and node state."""

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.fleet import Cluster, PoolSpec, resolve_profiles
from repro.fleet.router import interleave
from repro.runtime import Scenario


def _pool(device="Jetson Nano", framework="TensorRT", replicas=2,
          max_batch=1, name="pool", model="ResNet-18"):
    return PoolSpec(name=name, replicas=replicas, max_batch=max_batch,
                    scenario=Scenario(model, device, framework))


class TestPoolSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            _pool(replicas=0)
        with pytest.raises(ValueError, match="max_batch"):
            _pool(max_batch=0)
        with pytest.raises(ValueError, match="batch-1"):
            PoolSpec(name="p", replicas=1,
                     scenario=Scenario("ResNet-18", "Jetson Nano", "TensorRT",
                                       batch_size=4))

    def test_scenario_grid_sweeps_batch_sizes(self):
        grid = _pool(max_batch=4).scenario_grid()
        assert [scenario.batch_size for scenario in grid] == [1, 2, 3, 4]
        assert all(scenario.device == "Jetson Nano" for scenario in grid)

    def test_describe(self):
        assert "2x Jetson Nano" in _pool().describe()


class TestResolveProfiles:
    def test_profiles_priced_by_the_engine(self):
        pools = [_pool(max_batch=4, name="nano"),
                 _pool("Jetson TX2", "PyTorch", name="tx2")]
        profiles = resolve_profiles(pools)
        nano = profiles["nano"]
        assert len(nano.batch_wall_s) == 4
        assert nano.max_batch == 4
        # Per-batch wall time grows; per-request time shrinks (amortization).
        assert nano.batch_wall_s[3] > nano.batch_wall_s[0]
        assert nano.full_batch_request_s < nano.service_s
        assert nano.power_w > nano.idle_w > 0
        assert nano.energy_per_request_j == pytest.approx(
            nano.power_w * nano.service_s)
        assert profiles["tx2"].max_batch == 1

    def test_undeployable_pool_raises_structured_error(self):
        # EdgeTPU cannot convert ResNet-18 (Table V): batch 1 fails.
        with pytest.raises(ReproError, match="cannot deploy"):
            resolve_profiles([_pool("EdgeTPU", "TFLite")])

    def test_duplicate_pool_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            resolve_profiles([_pool(name="same"), _pool(name="same")])

    def test_batch_failure_caps_effective_max_batch(self):
        # A huge batch eventually exhausts activation memory; the pool is
        # capped below the first failing size instead of erroring out.
        profile = resolve_profiles(
            [_pool("Jetson Nano", "TensorRT", max_batch=4096, name="big",
                   model="VGG16")])["big"]
        assert 1 <= profile.max_batch < 4096
        assert len(profile.batch_wall_s) == profile.max_batch


class TestNodeState:
    """Per-node state: entries of the cluster's arrays."""

    def _node(self):
        pool = _pool(name="p", replicas=1)
        return Cluster([pool], resolve_profiles([pool]))

    def test_assign_and_depth(self):
        node = self._node()
        assert node.depth.tolist() == [0]
        node.assign(np.array([3]), np.array([0.1, 0.2, 0.3]))
        assert node.depth.tolist() == [3]
        assert node.max_depth.tolist() == [3]
        assert node.assigned.tolist() == [3]

    def test_outstanding_counts_in_service_work(self):
        node = self._node()
        node.assign(np.array([1]), np.array([0.0]))
        node.clock_s[-1, 0] = 5.0
        assert node.outstanding(1.0).tolist() == [2]  # queued + in service
        assert node.outstanding(6.0).tolist() == [1]

    def test_compact_preserves_the_unserved_suffix(self):
        node = self._node()
        node.assign(np.array([4]), np.array([0.1, 0.2, 0.3, 0.4]))
        node.head[0] = 3
        node.compact()
        assert node.pending[0, :1].tolist() == [0.4]
        assert node.head.tolist() == [0]
        assert node.depth.tolist() == [1]

    def test_drain_pending_reports_losses(self):
        node = self._node()
        node.assign(np.array([2]), np.array([0.1, 0.2]))
        node.head[0] = 1
        node.drain(np.array([True]))
        assert node.dropped.tolist() == [1]
        assert node.depth.tolist() == [0]

    def test_fifos_keep_arrival_order_through_compaction_and_growth(self):
        # Interleaved shares land in each node's FIFO in arrival order.
        # Nodes 0 and 1 serve half their queue each epoch, so their tails
        # outrun the buffer (compaction); node 2 never serves, so its
        # queue outgrows it (growth).
        pool = _pool(name="p", replicas=3)
        nodes = Cluster([pool], resolve_profiles([pool]))
        queued = [[], [], []]
        for epoch in range(40):
            quotas = np.array([epoch * 7 % 50, 60, 0 if epoch % 3 else 90])
            times = epoch + np.arange(quotas.sum()) / 1e3
            owners, _ = interleave(quotas)
            for owner, time in zip(owners.tolist(), times.tolist()):
                queued[owner].append(time)
            nodes.assign(quotas, times)
            served = nodes.depth // 2
            served[2] = 0
            nodes.head += served
            for node in range(3):
                del queued[node][:served[node]]
        assert nodes.pending.shape[1] > 1024
        for node in range(3):
            assert nodes.pending[node, nodes.head[node]:nodes.tail[node]
                                 ].tolist() == queued[node]
