"""Dynamic batching on the fleet path: a one-replica pool with a batch limit.

A pool whose batch limit exceeds one grabs everything queued (up to the
limit) whenever its node frees up, which is how ``ext-batch-serving``
serves its RTX 2080 stream.
"""

import numpy as np
import pytest

from repro.fleet import FleetSimulation, PoolSpec, lindley
from repro.frameworks import load_framework
from repro.hardware import load_device
from repro.models import load_model
from repro.runtime import Scenario
from repro.workloads import PoissonArrivals
from tests.workloads.reference import batched_latency_fn, one_node


def _linear(per_item: float, max_batch: int, setup: float = 0.0):
    """Synthetic batch wall times, setup + per_item * batch (perfect
    batching amortizes setup)."""
    return [setup + per_item * batch for batch in range(1, max_batch + 1)]


def _torch_pool(max_batch, model="ResNet-50", device="RTX 2080"):
    return PoolSpec(name=device, replicas=1, max_batch=max_batch,
                    scenario=Scenario(model, device, "PyTorch"))


class TestMechanics:
    def test_batch_one_matches_fifo(self):
        arrivals = PoissonArrivals(20.0, seed=1).generate(60.0)
        fleet = one_node([0.02]).run(arrivals)
        finish_s = lindley(arrivals, 0.02 * np.arange(arrivals.size), 0.02, 0.0)
        assert fleet.sojourn.mean_s == pytest.approx(
            float(np.mean(finish_s - arrivals)))
        assert fleet.pools[0].mean_batch_size == 1.0

    def test_simultaneous_burst_forms_one_batch(self):
        stats = one_node(_linear(0.01, 16)).run(np.zeros(8))
        assert stats.pools[0].batches == 1
        assert stats.pools[0].mean_batch_size == 8.0

    def test_max_batch_respected(self):
        stats = one_node(_linear(0.01, 4)).run(np.zeros(10))
        assert stats.pools[0].batches == 3  # 4 + 4 + 2
        assert stats.sojourn.max_s == pytest.approx(0.04 + 0.04 + 0.02)

    def test_p999_tracks_the_sojourn_tail(self):
        arrivals = PoissonArrivals(80.0, seed=5).generate(60.0)
        stats = one_node(_linear(0.01, 8)).run(arrivals)
        assert stats.sojourn.p99_s <= stats.sojourn.p999_s
        # Deterministic burst: every sojourn identical, so all tails agree.
        burst = one_node(_linear(0.01, 16)).run(np.zeros(8))
        assert burst.sojourn.p999_s == pytest.approx(burst.sojourn.p99_s)

    def test_low_load_stays_unbatched(self):
        arrivals = np.arange(0.0, 10.0, 1.0)  # 1 Hz vs 10 ms service
        stats = one_node(_linear(0.01, 32)).run(arrivals)
        assert stats.pools[0].mean_batch_size == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            one_node(_linear(0.01, 4)).run(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="max_batch"):
            _torch_pool(max_batch=0)
        empty = one_node(_linear(0.01, 4)).run(np.array([]))
        assert empty.pools[0].batches == empty.completed == 0


class TestBatchingPaysOff:
    def test_heavy_load_tail_latency_collapses_with_batching(self):
        """Near the unbatched capacity, batching eats the queue: p99 drops
        by an order of magnitude."""
        arrivals = PoissonArrivals(80.0, seed=2).generate(30.0)
        walls = _linear(per_item=0.002, max_batch=32, setup=0.01)
        unbatched = one_node(walls[:1]).run(arrivals)
        batched = one_node(walls).run(arrivals)
        assert batched.sojourn.p99_s < unbatched.sojourn.p99_s / 5
        assert batched.pools[0].mean_batch_size > 1.1

    def test_overload_throughput_raised_by_amortization(self):
        """Beyond unbatched capacity (83 rps here), only batching keeps up."""
        arrivals = PoissonArrivals(150.0, seed=4).generate(30.0)
        walls = _linear(per_item=0.002, max_batch=32, setup=0.01)
        unbatched = one_node(walls[:1]).run(arrivals)
        batched = one_node(walls).run(arrivals)
        assert unbatched.pools[0].utilization > 0.99
        assert batched.throughput_rps > 1.5 * unbatched.throughput_rps
        assert batched.pools[0].mean_batch_size > 2.0

    def test_engine_backed_batching_on_hpc(self):
        """RTX 2080 under a 300 rps stream: the engine's batch speedup is
        what keeps the queue bounded."""
        arrivals = PoissonArrivals(300.0, seed=3).generate(20.0)
        unbatched, batched = (
            FleetSimulation([_torch_pool(max_batch)], epochs=1).run(arrivals)
            for max_batch in (1, 32))
        # Single-batch capacity is ~123 rps: the unbatched server saturates.
        assert unbatched.pools[0].utilization > 0.99
        assert batched.throughput_rps > 2 * unbatched.throughput_rps
        assert batched.sojourn.p99_s < unbatched.sojourn.p99_s / 5

    def test_pool_profile_matches_a_session_per_batch(self):
        """The fleet's one ``run_grid`` pricing gives every batch the wall
        time of its own engine session, bit for bit."""
        deployed = load_framework("PyTorch").deploy(
            load_model("ResNet-50"), load_device("RTX 2080"))
        batch_time = batched_latency_fn(deployed, max_batch=8)
        profile = FleetSimulation([_torch_pool(8)]).profiles["RTX 2080"]
        assert profile.batch_wall_s == tuple(
            batch_time(batch) for batch in range(1, 9))
        # Per-batch time grows with batch, per-item time shrinks.
        assert profile.batch_wall_s[7] > profile.batch_wall_s[0]
        assert profile.full_batch_request_s < profile.service_s

    def test_oom_caps_the_pool_on_hpc(self):
        """Where a session per batch would raise out-of-memory, the pool
        serves below the first batch size that does not fit."""
        from repro.core.errors import OutOfMemoryError

        deployed = load_framework("PyTorch").deploy(
            load_model("VGG16"), load_device("GTX Titan X"))
        with pytest.raises(OutOfMemoryError):
            batched_latency_fn(deployed, max_batch=512)
        simulation = FleetSimulation(
            [_torch_pool(512, model="VGG16", device="GTX Titan X")], epochs=1)
        profile = simulation.profiles["GTX Titan X"]
        assert 1 < profile.max_batch < 512
        stats = simulation.run(np.zeros(2 * profile.max_batch))
        assert stats.pools[0].batches == 2
        assert stats.completed == 2 * profile.max_batch
