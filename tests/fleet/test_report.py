"""FleetStats: summaries, SLO gates, and the JSON round trip."""

import json
import re

import numpy as np
import pytest

from repro.fleet import FleetStats, PoolSpec, SojournSummary, simulate_fleet
from repro.runtime import Scenario
from repro.workloads import PoissonArrivals


@pytest.fixture(scope="module")
def stats():
    pools = [PoolSpec(name="nano", replicas=2, max_batch=2,
                      scenario=Scenario("ResNet-18", "Jetson Nano", "TensorRT")),
             PoolSpec(name="tx2", replicas=1,
                      scenario=Scenario("ResNet-18", "Jetson TX2", "PyTorch"))]
    return simulate_fleet(pools, PoissonArrivals(80.0), requests=4000,
                          seed=13, epochs=128)


class TestSojournSummary:
    def test_from_times_orders_percentiles(self):
        times = np.random.default_rng(0).exponential(0.1, size=5000)
        summary = SojournSummary.from_times(times)
        assert (summary.p50_s <= summary.p95_s <= summary.p99_s
                <= summary.p999_s <= summary.max_s)
        assert summary.mean_s == pytest.approx(times.mean())

    def test_empty_is_all_zero(self):
        summary = SojournSummary.from_times(np.empty(0))
        assert summary == SojournSummary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_round_trip(self):
        summary = SojournSummary(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        assert SojournSummary.from_dict(summary.to_dict()) == summary


class TestFleetStats:
    def test_json_round_trip_is_lossless(self, stats):
        clone = FleetStats.from_json(stats.to_json())
        assert clone == stats
        assert clone.pools[0].scenario == stats.pools[0].scenario

    def test_unknown_report_version_rejected(self, stats):
        payload = stats.to_dict()
        payload["report_version"] = 999
        with pytest.raises(ValueError, match="report version"):
            FleetStats.from_dict(payload)

    def test_serialized_form_is_plain_json(self, stats):
        payload = json.loads(stats.to_json())
        assert payload["requests"] == 4000
        assert {pool["name"] for pool in payload["pools"]} == {"nano", "tx2"}

    def test_meets_slo_gates_on_tail_and_drops(self, stats):
        assert stats.meets_slo(stats.sojourn.p99_s + 1e-9)
        assert not stats.meets_slo(stats.sojourn.p50_s / 2, percentile=0.5)
        assert stats.meets_slo(stats.sojourn.p999_s + 1e-9, percentile=0.999)
        with pytest.raises(ValueError, match="percentile"):
            stats.meets_slo(1.0, percentile=0.42)

    def test_describe_names_every_pool(self, stats):
        text = stats.describe()
        assert "pool nano" in text and "pool tx2" in text
        assert "p999" in text

    def test_drop_fraction(self, stats):
        assert stats.drop_fraction == (
            (stats.dropped + stats.rejected) / stats.requests)
        for pool in stats.pools:
            if pool.assigned:
                assert pool.drop_fraction == pool.dropped / pool.assigned


class TestConservationAtConstruction:
    """A report that breaks conservation cannot be built or loaded; the
    error names the broken equation."""

    @pytest.mark.parametrize("tamper, equation", [
        (lambda p: p.update(completed=p["completed"] + 1),
         "requests == completed + dropped + rejected"),
        (lambda p: p.update(completed=p["completed"] + 1,
                            rejected=p["rejected"] - 1),
         "rejected >= 0"),
        (lambda p: p.update(completed=p["completed"] + 1, requests=4001,
                            rejected=p["rejected"]),
         "sum(pool.assigned) + rejected == requests"),
        (lambda p: p.update(completed=p["completed"] - 1,
                            dropped=p["dropped"] + 1),
         "completed, dropped == sum over pools"),
        (lambda p: p["pools"][0].update(completed=p["pools"][0]["completed"] + 1),
         "pool 'nano': assigned == completed + dropped"),
        (lambda p: p["pools"][0].update(assigned=-1, completed=-1),
         "pool 'nano': assigned, completed, dropped >= 0"),
    ], ids=["fleet-total", "negative-rejected", "assigned", "pool-sums",
            "pool-total", "pool-negative"])
    def test_tampered_report_fails_to_load(self, stats, tamper, equation):
        payload = json.loads(stats.to_json())
        tamper(payload)
        with pytest.raises(ValueError, match=re.escape(equation)):
            FleetStats.from_dict(payload)


class TestDegenerateRuns:
    """Empty and zero-request simulations must report cleanly, not crash
    or vacuously pass SLO gates."""

    @pytest.fixture(scope="class")
    def empty(self):
        pools = [PoolSpec(name="nano", replicas=1,
                          scenario=Scenario("ResNet-18", "Jetson Nano",
                                            "TensorRT"))]
        return simulate_fleet(pools, np.empty(0), epochs=4)

    def test_zero_requests_report_all_zero(self, empty):
        assert empty.requests == 0
        assert empty.completed == empty.dropped == empty.rejected == 0
        assert empty.throughput_rps == 0.0
        assert empty.energy_per_request_j == 0.0
        assert empty.sojourn == SojournSummary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert empty.drop_fraction == 0.0

    def test_empty_run_never_meets_an_slo(self, empty):
        """All-zero percentiles would pass any deadline; the gate must
        refuse instead."""
        assert not empty.meets_slo(1e9)
        assert not empty.meets_slo(1e9, percentile=0.5)

    def test_empty_run_round_trips(self, empty):
        assert FleetStats.from_json(empty.to_json()) == empty

    def test_empty_pools_report_zero_not_nan(self, empty):
        for pool in empty.pools:
            assert pool.assigned == 0
            assert pool.energy_per_request_j == 0.0
            assert pool.utilization == 0.0
            assert pool.throughput_rps == 0.0
