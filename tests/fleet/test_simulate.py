"""The fleet event loop, cross-checked against the scalar simulators."""

import dataclasses

import numpy as np
import pytest

from repro.fleet import (
    AdmissionControl,
    Autoscaler,
    FleetSimulation,
    PoolSpec,
    simulate_fleet,
)
from repro.hardware import list_devices
from repro.runtime import Scenario
from repro.workloads import PoissonArrivals
from tests.workloads.reference import simulate_batch_serving, simulate_serving


def _pool(device="Jetson Nano", framework="TensorRT", replicas=1,
          max_batch=1, name="pool"):
    return PoolSpec(name=name, replicas=replicas, max_batch=max_batch,
                    scenario=Scenario("ResNet-18", device, framework))


class TestAgainstScalarSimulators:
    """One node behind the router must serve exactly like the scalar
    loops kept in :mod:`tests.workloads.reference` — the epoch grid
    quantizes routing, never a single node's schedule."""

    def test_single_fifo_node_matches_simulate_serving(self):
        simulation = FleetSimulation([_pool()], epochs=64)
        service_s = simulation.profiles["pool"].service_s
        arrivals = PoissonArrivals(0.8 / service_s, seed=3).generate(120.0)
        fleet = simulation.run(arrivals)
        scalar = simulate_serving(arrivals, service_time_s=service_s)
        assert fleet.completed == scalar.completed == len(arrivals)
        assert fleet.sojourn.mean_s == pytest.approx(scalar.mean_sojourn_s)
        assert fleet.sojourn.p99_s == pytest.approx(scalar.p99_sojourn_s)
        assert fleet.sojourn.p999_s == pytest.approx(scalar.p999_sojourn_s)

    def test_single_batching_node_matches_simulate_batch_serving(self):
        simulation = FleetSimulation([_pool(max_batch=8)], epochs=64)
        profile = simulation.profiles["pool"]
        rate_hz = 2.0 / profile.service_s  # overload batch-1: batching kicks in
        arrivals = PoissonArrivals(rate_hz, seed=4).generate(60.0)
        fleet = simulation.run(arrivals)
        scalar = simulate_batch_serving(
            arrivals, lambda batch: profile.batch_wall_s[batch - 1],
            max_batch=8)
        assert fleet.pools[0].mean_batch_size == scalar.mean_batch_size
        assert fleet.pools[0].batches == scalar.batches
        assert fleet.sojourn.mean_s == pytest.approx(scalar.mean_sojourn_s)
        assert fleet.sojourn.p999_s == scalar.p999_sojourn_s
        assert fleet.pools[0].mean_batch_size > 1.5

    def test_epoch_count_never_changes_the_outcome(self):
        pools = [_pool(), _pool("Jetson TX2", "PyTorch", name="tx2")]
        arrivals = PoissonArrivals(60.0, seed=5).generate(30.0)
        reports = [FleetSimulation(pools, epochs=epochs).run(arrivals)
                   for epochs in (1, 7, 256)]
        # Routing decisions shift with the grid, but conservation and
        # single-node exactness hold at any granularity.
        for report in reports:
            assert report.completed == len(arrivals)
            assert report.sojourn.mean_s > 0


class TestConservationAndDeterminism:
    def test_every_request_is_accounted_for(self):
        pools = [_pool(replicas=2, max_batch=4, name="nano"),
                 _pool("Jetson TX2", "PyTorch", name="tx2")]
        stats = simulate_fleet(pools, PoissonArrivals(150.0), requests=5000,
                               seed=11, epochs=128,
                               admission=AdmissionControl(max_queue_per_node=16))
        assert stats.requests == 5000
        assert stats.completed + stats.dropped + stats.rejected == 5000
        for pool in stats.pools:
            assert pool.assigned == pool.completed + pool.dropped
        assert sum(pool.assigned for pool in stats.pools) + stats.rejected == 5000

    def test_same_seed_is_byte_identical(self):
        pools = [_pool(replicas=2, name="nano")]
        runs = [simulate_fleet(pools, PoissonArrivals(50.0), requests=2000,
                               seed=9, epochs=64).to_json()
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        pools = [_pool(replicas=2, name="nano")]
        a = simulate_fleet(pools, PoissonArrivals(50.0), requests=500, seed=1)
        b = simulate_fleet(pools, PoissonArrivals(50.0), requests=500, seed=2)
        assert a.sojourn.mean_s != b.sojourn.mean_s

    def test_policies_all_conserve(self):
        pools = [_pool(replicas=2, max_batch=2, name="nano"),
                 _pool("Jetson TX2", "PyTorch", name="tx2")]
        for policy in ("round-robin", "least-outstanding", "energy-aware"):
            stats = simulate_fleet(pools, PoissonArrivals(120.0),
                                   requests=3000, seed=2, epochs=64,
                                   router=policy)
            assert stats.policy == policy
            assert stats.completed + stats.dropped + stats.rejected == 3000


class TestControlPlanes:
    def test_admission_rejects_when_queues_are_full(self):
        # One slow node, brutal overload, tiny queue bound: most requests
        # are refused at the front door and the tail stays finite.
        pools = [_pool("Raspberry Pi 3B", "TFLite", name="pi")]
        bounded = simulate_fleet(pools, PoissonArrivals(50.0), requests=2000,
                                 seed=3, epochs=128,
                                 admission=AdmissionControl(max_queue_per_node=4))
        unbounded = simulate_fleet(pools, PoissonArrivals(50.0),
                                   requests=2000, seed=3, epochs=128)
        assert bounded.rejected > 0
        assert unbounded.rejected == 0
        assert bounded.sojourn.p99_s < unbounded.sojourn.p99_s

    def test_autoscaler_wakes_standby_replicas_under_load(self):
        pools = [_pool(replicas=4, name="nano")]
        stats = simulate_fleet(pools, PoissonArrivals(120.0), requests=6000,
                               seed=6, epochs=256,
                               autoscaler=Autoscaler(high_depth=4.0,
                                                     cooldown_epochs=2))
        assert stats.scale_ups > 0
        assert stats.pools[0].final_active_replicas > 1
        assert stats.completed + stats.dropped + stats.rejected == 6000

    def test_sustained_overload_melts_the_pi(self):
        # Figure 14 at fleet scale: a saturated Pi 3B heats past the trip
        # point, sheds its queue, and the report shows the shutdown.
        # ~1.7x the Pi's capacity, sustained long enough (~25 min of
        # simulated time) for the lumped RC to integrate past the trip.
        pools = [_pool("Raspberry Pi 3B", "TFLite", name="pi")]
        stats = simulate_fleet(pools, PoissonArrivals(2.0), requests=3000,
                               seed=8, epochs=256)
        assert stats.shutdown_events == 1
        assert stats.dropped > 0
        assert stats.pools[0].final_active_replicas == 0

    def test_energy_account_includes_idle_draw(self):
        pools = [_pool(replicas=2, name="nano")]
        simulation = FleetSimulation(pools, epochs=64)
        profile = simulation.profiles["nano"]
        # A trickle of load: energy must be dominated by idle draw.
        arrivals = PoissonArrivals(1.0, seed=10).generate(50.0)
        stats = simulation.run(arrivals)
        idle_floor_j = 2 * profile.idle_w * stats.horizon_s * 0.9
        assert stats.energy_j > idle_floor_j
        assert stats.pools[0].utilization < 0.1


def _deployable_scenario(device):
    """A ResNet-18 (or, where that cannot deploy, MobileNet-v2) scenario
    ``Runner.first_session`` deploys on ``device``."""
    from repro.runtime import default_runner

    for model in ("ResNet-18", "MobileNet-v2"):
        entry = default_runner().first_session(model, device)
        if entry is not None:
            return Scenario(model, device, entry[0])
    raise AssertionError(f"nothing deploys on {device}")


class TestEveryDevice:
    """Every catalog device serves as a one-replica pool; the HPC parts
    have no thermal spec, so their nodes never heat or throttle."""

    @pytest.mark.parametrize("device", list_devices())
    def test_one_replica_pool_conserves_requests(self, device):
        pool = PoolSpec(name=device, replicas=1, max_batch=2,
                        scenario=_deployable_scenario(device))
        simulation = FleetSimulation([pool], epochs=16)
        rate_hz = 0.5 * simulation.capacity_rps
        stats = simulation.run(PoissonArrivals(rate_hz, seed=2).generate(
            200.0 / rate_hz))
        assert stats.requests > 0
        assert stats.completed + stats.dropped + stats.rejected == stats.requests
        assert stats.completed > 0
        if simulation.profiles[device].thermal is None:
            assert stats.throttle_events == stats.fan_events == 0
            assert stats.shutdown_events == 0


class TestValidation:
    def test_workload_argument_contract(self):
        pools = [_pool()]
        process = PoissonArrivals(10.0)
        with pytest.raises(ValueError, match="needs requests"):
            simulate_fleet(pools, process)
        with pytest.raises(ValueError, match="not both"):
            simulate_fleet(pools, process, requests=10, horizon_s=1.0)
        with pytest.raises(ValueError, match="arrival processes"):
            simulate_fleet(pools, np.array([0.0, 1.0]), requests=10)
        with pytest.raises(ValueError, match="sorted"):
            simulate_fleet(pools, np.array([1.0, 0.5]))
        # An empty stream is a valid degenerate run (all-zero report),
        # pinned by TestDegenerateRuns in test_report.py.
        assert simulate_fleet(pools, np.array([])).requests == 0

    def test_simulation_construction_contract(self):
        with pytest.raises(ValueError, match="epochs"):
            FleetSimulation([_pool()], epochs=0)
        with pytest.raises(ValueError, match="at least one pool"):
            FleetSimulation([])

    @pytest.mark.parametrize("times", [
        [0.0, 1.0, np.inf],  # linspace up to inf: NaN epoch edges
        [-5.0, -1.0, 0.0],  # before the grid's first edge: never routed
        [0.0, np.nan, 1.0],  # passes the sort check, NaN p99
        [np.nan],  # NaN horizon
    ], ids=["inf", "negative", "nan-inside", "nan-only"])
    def test_arrivals_off_the_epoch_grid_are_rejected(self, times):
        pools = [_pool(replicas=2, max_batch=4)]
        with pytest.raises(ValueError, match="finite and >= 0"):
            simulate_fleet(pools, np.array(times))

    def test_horizon_mode(self):
        stats = simulate_fleet([_pool()], PoissonArrivals(20.0),
                               horizon_s=10.0, seed=5, epochs=32)
        assert stats.requests == pytest.approx(200, rel=0.5)
        assert stats.completed + stats.dropped + stats.rejected == stats.requests


def _float_fields(obj):
    """(owner.field, value) for every float a dataclass holds, nested
    dataclasses included."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            yield from _float_fields(value)
        elif isinstance(value, float):
            yield f"{type(obj).__name__}.{field.name}", value


class TestUnitTags:
    """Units are checked statically only: records, stages, profiles and the
    unit-annotated returns hold plain floats, so no unit tag reaches a
    report, a thermal model or a CSV cell."""

    def test_run_records_and_pipeline_stages_hold_plain_floats(self):
        from repro.distribution import lower_pipeline
        from repro.runtime import default_runner

        scenario = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
        fields = [*_float_fields(default_runner().run(scenario))]
        for stage in lower_pipeline((scenario,) * 2, "lan").stages:
            fields += _float_fields(stage)
        assert {"RunRecord.power_w", "StageSpec.power_w"} <= {
            name for name, _ in fields}
        assert [name for name, value in fields if type(value) is not float] == []

    @pytest.mark.parametrize("containerized", [False, True])
    def test_unit_annotated_returns_are_plain_floats(self, containerized):
        from repro.hardware import load_device
        from repro.runtime import default_runner

        runner = default_runner()
        scenario = Scenario("ResNet-18", "Jetson Nano", "TensorRT",
                            containerized=containerized)
        device = load_device("Jetson Nano")
        returns = [runner.measure(scenario), runner.run(scenario).latency(),
                   *runner.session(scenario).run(2), device.power.power(0.5),
                   device.thermal_simulator().step(5.0, 1.0)]
        assert [type(value) for value in returns] == [float] * len(returns)

    def test_energies_and_temperatures_are_plain_floats(self):
        from repro.distribution import lower_pipeline

        chain = (Scenario("ResNet-18", "Jetson Nano", "TensorRT"),) * 2
        pools = [_pool("Raspberry Pi 3B", "TFLite", replicas=2, name="pi"),
                 PoolSpec.from_deployment("pipe", lower_pipeline(chain, "lan"),
                                          replicas=1)]
        simulation = FleetSimulation(pools, epochs=64)
        stats = simulation.run(PoissonArrivals(1.0, seed=1).generate(2000.0))
        assert type(stats.energy_j) is float
        assert type(stats.energy_per_request_j) is float
        for pool in stats.pools:
            assert type(pool.energy_j) is float
            assert type(pool.energy_per_request_j) is float
        for profile in simulation.profiles.values():
            assert type(profile.energy_per_request_j) is float
            # The draws that heat the thermal model, pool and stage alike.
            assert type(profile.power_w) is type(profile.idle_w) is float
            for stage in profile.stages or ():
                assert type(stage.power_w) is type(stage.idle_w) is float
        for name in ("throttle_events", "fan_events", "shutdown_events",
                     "final_active_replicas", "completed", "batches",
                     "max_queue_depth"):
            assert type(getattr(stats.pools[0], name)) is int
        for value in (stats.horizon_s, stats.throughput_rps,
                      stats.pools[0].utilization, stats.sojourn.mean_s):
            assert type(value) is float
