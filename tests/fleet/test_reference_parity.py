"""The array event loop against the per-node loop it replaced.

:func:`~tests.fleet.reference.reference_run` advances one object per
replica — a Python-list FIFO, ``_advance_*`` calls and a
``ThermalSimulator`` each.  The array loop must write the same report,
byte for byte, for every policy, control plane, pool kind and thermal
fate, including the adversarial streams: everything at t=0, a burst past
the fleet's admission headroom, and a 1e8 s horizon.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import lower_pipeline
from repro.fleet import (
    ROUTER_POLICIES,
    AdmissionControl,
    Autoscaler,
    FleetSimulation,
    PoolSpec,
)
from repro.runtime import Scenario
from repro.workloads import BurstyArrivals, PoissonArrivals
from tests.fleet.reference import reference_run

_NANO = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
_NANO_TORCH = Scenario("ResNet-18", "Jetson Nano", "PyTorch")
_TX2 = Scenario("ResNet-18", "Jetson TX2", "PyTorch")
_PI = Scenario("ResNet-18", "Raspberry Pi 3B", "TFLite")
_RTX = Scenario("ResNet-18", "RTX 2080", "PyTorch")


@lru_cache(maxsize=None)
def _pipeline():
    return lower_pipeline((_NANO, _NANO), "lan")


def _mixed_pools(replicas=2):
    """A batched, a FIFO and a 2-stage pipeline pool."""
    return [PoolSpec(name="nano", scenario=_NANO, replicas=replicas + 1,
                     max_batch=4),
            PoolSpec(name="tx2", scenario=_TX2, replicas=replicas),
            PoolSpec.from_deployment("pipe", _pipeline(), replicas=replicas)]


def _assert_identical(simulation, arrivals, seed=0):
    stats = simulation.run(arrivals, seed=seed)
    assert stats.to_json() == reference_run(simulation, arrivals,
                                            seed=seed).to_json()
    return stats


class TestMatchesThePerNodeLoop:
    @pytest.mark.parametrize("control", ["none", "admission", "autoscaler"])
    @pytest.mark.parametrize("policy", sorted(ROUTER_POLICIES))
    def test_every_policy_and_control_plane(self, policy, control):
        kwargs = {"none": {},
                  "admission": {"admission": AdmissionControl(6)},
                  "autoscaler": {"autoscaler": Autoscaler()}}[control]
        simulation = FleetSimulation(_mixed_pools(), router=policy,
                                     epochs=96, **kwargs)
        arrivals = BurstyArrivals(60.0, 25, seed=3).generate(40.0)
        stats = _assert_identical(simulation, arrivals, seed=3)
        assert stats.completed > 0
        if control == "admission":
            assert stats.rejected > 0
        if control == "autoscaler":
            assert stats.scale_ups > 0

    def test_pi_meltdown_with_shutdowns(self):
        # Overloaded Pis trip their shutdown and shed their queues while
        # the TX2 keeps serving the traffic routed around them.
        pools = [PoolSpec(name="pi", scenario=_PI, replicas=2),
                 PoolSpec(name="tx2", scenario=_TX2, replicas=1)]
        simulation = FleetSimulation(pools, router="round-robin", epochs=128)
        arrivals = PoissonArrivals(6.0, seed=8).generate(1500.0)
        stats = _assert_identical(simulation, arrivals, seed=8)
        assert stats.shutdown_events == 2
        assert stats.pools[0].dropped > 0
        assert stats.pools[1].completed > 0

    def test_pools_without_a_thermal_spec(self):
        # The RTX 2080 has no thermal spec, so its nodes never heat; the
        # Pi routed beside them still melts down.
        pools = [PoolSpec(name="rtx", scenario=_RTX, replicas=2, max_batch=4),
                 PoolSpec(name="rtx-fifo", scenario=_RTX, replicas=1),
                 PoolSpec(name="pi", scenario=_PI, replicas=1)]
        simulation = FleetSimulation(pools, router="round-robin", epochs=128)
        assert simulation.profiles["rtx"].thermal is None
        arrivals = PoissonArrivals(8.0, seed=8).generate(1500.0)
        stats = _assert_identical(simulation, arrivals, seed=8)
        rtx, rtx_fifo, pi = stats.pools
        assert rtx.completed > 0 and rtx_fifo.completed > 0
        assert rtx.shutdown_events == rtx.fan_events == 0
        assert pi.shutdown_events == 1

    def test_dvfs_throttling_stretches_service(self):
        simulation = FleetSimulation(
            [PoolSpec(name="pi", scenario=_PI, replicas=2)], epochs=128)
        profile = simulation.profiles["pi"]
        simulation.profiles["pi"] = dataclasses.replace(
            profile, thermal=dataclasses.replace(
                profile.thermal, throttle_c=60.0, throttle_stop_c=55.0,
                throttle_clock_factor=0.6))
        # At 1.0 req/s the soft limit holds the Pis below their trip point;
        # at 1.5 req/s the stretched service heats them past it anyway.
        cool = _assert_identical(
            simulation, PoissonArrivals(1.0, seed=4).generate(1500.0), seed=4)
        assert cool.throttle_events > 0 and cool.shutdown_events == 0
        hot = _assert_identical(
            simulation, PoissonArrivals(1.5, seed=4).generate(1500.0), seed=4)
        assert hot.throttle_events > 0 and hot.shutdown_events == 2

    def test_every_request_at_time_zero(self):
        simulation = FleetSimulation(_mixed_pools(), epochs=32)
        stats = _assert_identical(simulation, np.zeros(1500))
        assert stats.completed == 1500

    def test_burst_larger_than_the_admission_headroom(self):
        simulation = FleetSimulation(_mixed_pools(), epochs=32,
                                     admission=AdmissionControl(6))
        # 7 nodes x 6 queue slots: most of a 2,000-request burst bounces.
        arrivals = np.concatenate([np.full(2000, 5.0),
                                   np.linspace(6.0, 60.0, 300)])
        stats = _assert_identical(simulation, arrivals)
        assert stats.rejected > 1000

    def test_hundred_million_second_horizon(self):
        simulation = FleetSimulation(_mixed_pools(), epochs=64)
        arrivals = np.sort(np.concatenate([
            np.random.default_rng(5).uniform(0.0, 1e8, 400),
            np.full(300, 5e7), 1e8 + np.arange(200) * 1e-3]))
        stats = _assert_identical(simulation, arrivals)
        assert stats.horizon_s >= 1e8

    def test_empty_stream(self):
        _assert_identical(FleetSimulation(_mixed_pools(), epochs=8),
                          np.array([]))


def _fleets():
    pool = st.tuples(st.sampled_from(["nano", "tx2", "nano-torch", "pi",
                                      "pipe"]),
                     st.integers(1, 3), st.integers(1, 4))
    return st.fixed_dictionaries({
        "pools": st.lists(pool, min_size=1, max_size=3,
                          unique_by=lambda spec: spec[0]),
        "policy": st.sampled_from(sorted(ROUTER_POLICIES)),
        "limit": st.one_of(st.none(), st.integers(1, 12)),
        "autoscale": st.booleans(),
        "rate": st.floats(2.0, 200.0),
        "epochs": st.integers(1, 48),
        "seed": st.integers(0, 2**16),
    })


def _check_random_fleet(case):
    scenarios = {"nano": _NANO, "tx2": _TX2, "nano-torch": _NANO_TORCH,
                 "pi": _PI}
    pools = []
    for name, replicas, batch in case["pools"]:
        if name == "pipe":
            pools.append(PoolSpec.from_deployment(name, _pipeline(), replicas))
        else:
            pools.append(PoolSpec(name=name, scenario=scenarios[name],
                                  replicas=replicas, max_batch=batch))
    simulation = FleetSimulation(
        pools, router=case["policy"], epochs=case["epochs"],
        admission=AdmissionControl(case["limit"]),
        autoscaler=Autoscaler(cooldown_epochs=1) if case["autoscale"] else None)
    arrivals = PoissonArrivals(case["rate"], seed=case["seed"]).generate(
        400.0 / case["rate"])
    _assert_identical(simulation, arrivals, seed=case["seed"])


class TestRandomFleets:
    @given(_fleets())
    @settings(max_examples=20, deadline=None)
    def test_small_random_fleets_match(self, case):
        _check_random_fleet(case)

    @pytest.mark.stress
    @given(_fleets())
    @settings(max_examples=500, deadline=None)
    def test_small_random_fleets_match_stress(self, case):
        _check_random_fleet(case)
