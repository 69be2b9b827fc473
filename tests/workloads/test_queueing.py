"""FIFO serving on the fleet path, validated against queueing theory.

A lone FIFO server is :func:`repro.fleet.lindley` fed the exclusive
cumulative sum of its service times (``serve_fifo``), which is what
``ext-serving`` runs.  Queue bounds, rejections and SLO verdicts come from
a one-replica fleet (``one_node``); both helpers live in
:mod:`tests.workloads.reference`.
"""

import numpy as np
import pytest

from repro.fleet import AdmissionControl, SojournSummary
from repro.workloads import PeriodicArrivals, PoissonArrivals
from tests.workloads.reference import one_node, serve_fifo


def mean_wait_s(arrivals, service_s):
    finish_s, _ = serve_fifo(arrivals, service_s)
    return float(np.mean(finish_s - service_s - arrivals))


class TestBasics:
    def test_underloaded_periodic_never_waits(self):
        arrivals = PeriodicArrivals(10.0).generate(10.0)
        finish_s, _ = serve_fifo(arrivals, 0.05)
        assert np.allclose(finish_s - 0.05, arrivals, rtol=0.0, atol=1e-12)
        sojourn = SojournSummary.from_times(finish_s - arrivals)
        assert sojourn.p99_s == pytest.approx(0.05)
        assert sojourn.p999_s == pytest.approx(0.05)
        stats = one_node([0.05], epochs=100).run(arrivals)
        assert stats.pools[0].max_queue_depth == 1
        assert stats.rejected == stats.dropped == 0

    def test_utilization_equals_rate_times_service(self):
        arrivals = PeriodicArrivals(10.0).generate(60.0)
        finish_s, busy_s = serve_fifo(arrivals, 0.05)
        assert busy_s / max(finish_s[-1], arrivals[-1]) == pytest.approx(
            0.5, abs=0.01)
        assert one_node([0.05]).run(arrivals).pools[0].utilization == (
            pytest.approx(0.5, abs=0.01))

    def test_overload_grows_the_queue(self):
        arrivals = PeriodicArrivals(30.0).generate(10.0)
        stats = one_node([0.05], epochs=64).run(arrivals)  # 1.5x overload
        assert stats.pools[0].utilization > 0.99
        # Last request waits roughly (1.5 - 1) * horizon.
        assert stats.sojourn.p99_s > 2.0
        assert stats.pools[0].max_queue_depth > 50

    def test_back_to_back_service(self):
        finish_s, _ = serve_fifo(np.zeros(3), 1.0)
        assert finish_s.tolist() == [1.0, 2.0, 3.0]
        stats = one_node([1.0]).run(np.zeros(3))
        assert stats.sojourn.mean_s == pytest.approx(2.0)  # 1, 2, 3 seconds

    def test_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            one_node([0.1]).run(np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            one_node([0.1]).run(np.array([-1.0, 0.5]))
        # An empty stream is a valid, all-zero run that meets no SLO.
        empty = one_node([0.1]).run(np.array([]))
        assert empty.completed == empty.requests == 0
        assert not empty.meets_slo(10.0)


class TestDropPolicy:
    def test_capacity_drops_excess(self):
        # 5 simultaneous arrivals, room for 1 waiting + 1 in service.
        stats = one_node([1.0], admission=AdmissionControl(2)).run(np.zeros(5))
        assert stats.completed == 2
        assert stats.rejected == 3
        assert stats.drop_fraction == pytest.approx(0.6)

    def test_unbounded_queue_never_drops(self):
        stats = one_node([0.01]).run(np.zeros(100))
        assert stats.completed == 100
        assert stats.rejected == stats.dropped == 0

    def test_deadline_check_fails_on_drops(self):
        stats = one_node([1.0], admission=AdmissionControl(1)).run(np.zeros(5))
        assert stats.rejected == 4
        assert not stats.meets_slo(10.0)


class TestDeadline:
    def test_meets_deadline_percentiles(self):
        arrivals = PeriodicArrivals(10.0).generate(10.0)
        stats = one_node([0.02]).run(arrivals)
        assert stats.meets_slo(0.05, percentile=0.99)
        assert not stats.meets_slo(0.01, percentile=0.99)
        with pytest.raises(ValueError):
            stats.meets_slo(0.05, percentile=0.42)

    def test_p999_orders_above_p99_and_gates_deadlines(self):
        arrivals = PoissonArrivals(70.0, seed=14).generate(500.0)
        stats = one_node([0.01]).run(arrivals)
        sojourn = stats.sojourn
        assert sojourn.p50_s <= sojourn.p99_s <= sojourn.p999_s
        # The 99.9th percentile is the stricter gate at the same deadline.
        assert stats.meets_slo(sojourn.p999_s, percentile=0.999)
        assert not stats.meets_slo(
            (sojourn.p99_s + sojourn.p999_s) / 2,
            percentile=0.999) or sojourn.p99_s == sojourn.p999_s


class TestAgainstTheory:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_md1_waiting_time_matches_pollaczek_khinchine(self, rho):
        """M/D/1: E[W] = rho * s / (2 * (1 - rho))."""
        service = 0.01
        rate = rho / service
        arrivals = PoissonArrivals(rate, seed=11).generate(2000.0)
        expected_wait = rho * service / (2 * (1 - rho))
        assert mean_wait_s(arrivals, service) == pytest.approx(
            expected_wait, rel=0.15)
        fleet = one_node([service]).run(arrivals)
        assert fleet.sojourn.mean_s - service == pytest.approx(
            expected_wait, rel=0.15)

    def test_sojourn_is_wait_plus_service(self):
        arrivals = PoissonArrivals(40.0, seed=12).generate(500.0)
        finish_s, _ = serve_fifo(arrivals, 0.01)
        assert np.mean(finish_s - arrivals) == pytest.approx(
            mean_wait_s(arrivals, 0.01) + 0.01, rel=1e-6)

    def test_jittered_service_increases_waits(self):
        """Service-time variance raises queueing delay (P-K's second term)."""
        arrivals = PoissonArrivals(60.0, seed=13).generate(1000.0)
        jittered_s = 0.01 * np.random.default_rng(13).lognormal(
            0.0, 0.5, size=arrivals.size)
        assert mean_wait_s(arrivals, jittered_s) > mean_wait_s(arrivals, 0.01)
