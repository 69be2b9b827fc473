"""Routing policies: water-fill, interleave, and the three strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    ROUTER_POLICIES,
    AdmissionControl,
    Autoscaler,
    EnergyAwareRouter,
    LeastOutstandingRouter,
    PoolSpec,
    RoundRobinRouter,
    RoutingView,
    make_router,
    simulate_fleet,
)
from repro.fleet.router import interleave, water_fill
from repro.runtime import Scenario
from repro.workloads import BurstyArrivals
from tests.fleet.reference import reference_bracket, reference_water_fill


def _view(outstanding, limits=None, energy=None, capacity=None):
    outstanding = np.asarray(outstanding, dtype=np.float64)
    n = outstanding.size
    return RoutingView(
        outstanding=outstanding,
        limits=(np.full(n, np.inf) if limits is None
                else np.asarray(limits, dtype=np.float64)),
        energy_per_request_j=(np.ones(n) if energy is None
                              else np.asarray(energy, dtype=np.float64)),
        capacity=(np.full(n, np.inf) if capacity is None
                  else np.asarray(capacity, dtype=np.float64)),
    )


class TestWaterFill:
    def test_equalizes_levels(self):
        quotas = water_fill(9, np.array([0.0, 3.0, 6.0]), np.full(3, np.inf))
        # Levels after fill: 6, 6, 6.
        assert quotas.tolist() == [6, 3, 0]

    def test_total_is_exact_when_capacity_allows(self):
        base = np.array([2.0, 5.0, 1.0, 7.0])
        quotas = water_fill(17, base, np.full(4, np.inf))
        assert quotas.sum() == 17
        assert np.all(quotas >= 0)

    def test_limits_cap_and_shrink_the_total(self):
        quotas = water_fill(10, np.zeros(2), np.array([3.0, 4.0]))
        assert quotas.tolist() == [3, 4]  # capacity-bound: only 7 admitted

    def test_deterministic_tiebreak_by_index(self):
        quotas = water_fill(3, np.zeros(2), np.full(2, np.inf))
        assert quotas.tolist() == [2, 1]  # remainder goes to the lower index

    def test_replays_halvings_that_stop_short_of_adjacent_floats(self):
        count, base, limits = 2, np.array([0.0, -1.0, 1e6]), np.full(3, np.inf)
        # 64 halvings of [-1, 1e6 + 2] end 500 floats apart around 0.5.
        low, high = reference_bracket(count, base, np.minimum(limits, count))
        assert np.nextafter(low, np.inf) < high
        # At the smallest level that supplies 2 (one float below 0.5) node
        # 0's fraction is below node 1's; at the halvings' endpoint they
        # tie and the remainder goes to node 0.
        assert reference_water_fill(count, base, limits).tolist() == [1, 1, 0]
        assert water_fill(count, base, limits).tolist() == [1, 1, 0]


_LIMIT = st.sampled_from([0.0, np.inf]) | st.integers(0, 400).map(float)
_BASES = {
    "integer": st.integers(0, 2000).map(float),
    "negative": st.integers(-2000, 0).map(float),
    "mixed": (st.floats(-1e6, 1e6) | st.floats(-1e-3, 1e-3)
              | st.integers(-50, 50).map(float)),
}


@st.composite
def _fill_inputs(draw):
    """(count, base, limits) over the shapes the routers produce and more."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["integer", "negative", "mixed", "offsets"]))
    if kind == "offsets":  # round-robin's rotated 1e-9 tie-breakers
        base = (np.arange(n) - draw(st.integers(0, n - 1))) % n / n * 1e-9
    else:
        base = draw(st.lists(_BASES[kind], min_size=n, max_size=n))
    limits = draw(st.lists(_LIMIT, min_size=n, max_size=n))
    return (draw(st.integers(0, 5000)), np.asarray(base, dtype=np.float64),
            np.asarray(limits, dtype=np.float64))


def _assert_matches_reference(case):
    count, base, limits = case
    fast = water_fill(count, base, limits)
    slow = reference_water_fill(count, base, limits)
    assert fast.dtype == slow.dtype == np.int64
    assert fast.tolist() == slow.tolist()


class TestWaterFillParity:
    """The exact-threshold search must reproduce the 64-step bisection's
    quotas bit for bit, since fleet reports are byte-identical."""

    @given(_fill_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_bisection(self, case):
        _assert_matches_reference(case)

    @pytest.mark.stress
    @given(_fill_inputs())
    @settings(max_examples=5000, deadline=None)
    def test_matches_the_bisection_stress(self, case):
        _assert_matches_reference(case)

    @pytest.mark.parametrize("control", ["none", "admission", "autoscaler"])
    @pytest.mark.parametrize("policy", sorted(ROUTER_POLICIES))
    def test_reports_are_byte_identical(self, policy, control, monkeypatch):
        scenario = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
        pools = [PoolSpec(name="nano", scenario=scenario, replicas=3,
                          max_batch=4),
                 PoolSpec(name="tx2", replicas=2, scenario=Scenario(
                     "ResNet-18", "Jetson TX2", "PyTorch"))]
        kwargs = {"none": {},
                  "admission": {"admission": AdmissionControl(6)},
                  "autoscaler": {"autoscaler": Autoscaler()}}[control]

        def report():
            return simulate_fleet(pools, BurstyArrivals(15.0, 20),
                                  requests=4000, seed=3, epochs=128,
                                  router=policy, **kwargs).to_json()

        fast = report()
        monkeypatch.setattr("repro.fleet.router.water_fill",
                            reference_water_fill)
        assert report() == fast


class TestInterleave:
    def test_assignment_counts_match_quotas(self):
        quotas = np.array([3, 0, 5, 1])
        assignment, _ = interleave(quotas)
        assert assignment.size == 9
        assert np.bincount(assignment, minlength=4).tolist() == [3, 0, 5, 1]

    def test_shares_spread_rather_than_clump(self):
        assignment, _ = interleave(np.array([4, 4]))
        # Perfectly alternating: no node takes two in a row.
        assert np.all(np.diff(assignment.astype(int)) != 0)

    def test_empty(self):
        assignment, ranks = interleave(np.zeros(3, dtype=np.int64))
        assert assignment.size == ranks.size == 0

    def test_ranks_number_each_share_in_arrival_order(self):
        quotas = np.array([3, 0, 5, 1, 7])
        assignment, ranks = interleave(quotas)
        for node, quota in enumerate(quotas.tolist()):
            assert ranks[assignment == node].tolist() == list(range(quota))
        # Grouping arrivals node by node is the stable argsort of the
        # assignment; the ranks give it without a second sort.
        starts = np.cumsum(quotas) - quotas
        grouped = np.empty(quotas.sum(), dtype=np.int64)
        grouped[starts[assignment] + ranks] = np.arange(quotas.sum())
        assert grouped.tolist() == np.argsort(assignment, kind="stable").tolist()


class TestPolicies:
    def test_registry_round_trip(self):
        for name in ROUTER_POLICIES:
            assert make_router(name).name == name
        with pytest.raises(ValueError, match="unknown router"):
            make_router("coin-flip")

    def test_least_outstanding_levels_the_queues(self):
        router = LeastOutstandingRouter()
        quotas = router.quotas(_view([0.0, 8.0]), 10)
        assert quotas.tolist() == [9, 1]  # both end at 9

    def test_least_outstanding_respects_limits(self):
        router = LeastOutstandingRouter()
        quotas = router.quotas(_view([0.0, 0.0], limits=[2.0, np.inf]), 10)
        assert quotas[0] <= 2
        assert quotas.sum() == 10

    def test_round_robin_splits_evenly_and_rotates(self):
        router = RoundRobinRouter()
        first = router.quotas(_view([0.0, 0.0, 0.0]), 4)
        assert first.sum() == 4
        assert first.max() - first.min() == 1
        second = router.quotas(_view([0.0, 0.0, 0.0]), 4)
        # The remainder lands on a different node after rotation.
        assert not np.array_equal(first, second)

    def test_energy_aware_fills_cheapest_first(self):
        router = EnergyAwareRouter()
        quotas = router.quotas(
            _view([0.0, 0.0], energy=[5.0, 1.0], capacity=[10.0, 6.0]), 8)
        assert quotas.tolist() == [2, 6]  # node 1 is cheaper: fill it first

    def test_energy_aware_overflow_degrades_to_queueing(self):
        router = EnergyAwareRouter()
        quotas = router.quotas(
            _view([0.0, 0.0], energy=[1.0, 2.0], capacity=[3.0, 3.0]), 20)
        assert quotas.sum() == 20  # beyond capacity: queues absorb the rest
        assert quotas[0] >= quotas[1]  # cheaper node still preferred

    def test_policies_never_exceed_admission_limits(self):
        view = _view([1.0, 2.0, 3.0], limits=[2.0, 2.0, 2.0],
                     energy=[3.0, 2.0, 1.0], capacity=[5.0, 5.0, 5.0])
        for name in ROUTER_POLICIES:
            quotas = make_router(name).quotas(view, 50)
            assert np.all(quotas <= 2), name
