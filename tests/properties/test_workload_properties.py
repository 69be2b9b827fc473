"""Property-based tests of FIFO serving on the fleet path (hypothesis).

The service-time properties run :func:`repro.fleet.lindley` on arbitrary
arrival instants and per-request service times; the queue-bound ones run
a one-replica fleet, whose ``AdmissionControl(capacity + 1)`` admits what
a waiting room of ``capacity`` next to the server holds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import AdmissionControl, SojournSummary
from repro.workloads import PoissonArrivals
from tests.workloads.reference import one_node, serve_fifo, simulate_serving


def _requests(max_service_s=0.5):
    """Sorted arrival instants and their per-request service times."""
    return st.lists(st.tuples(st.floats(0.0, 100.0),
                              st.floats(1e-4, max_service_s)),
                    min_size=1, max_size=200).map(
        lambda pairs: tuple(np.array(column) for column in zip(*sorted(pairs))))


class TestServingProperties:
    @given(requests=_requests())
    @settings(max_examples=60, deadline=None)
    def test_sojourn_at_least_service(self, requests):
        arrivals, service_s = requests
        finish_s, _ = serve_fifo(arrivals, service_s)
        assert np.all(finish_s - arrivals >= service_s - 1e-12)
        # The closed form is the Lindley recursion, served in order.
        previous_s = 0.0
        for arrival_s, service, closed_s in zip(arrivals.tolist(),
                                                service_s.tolist(),
                                                finish_s.tolist()):
            previous_s = max(arrival_s, previous_s) + service
            assert abs(closed_s - previous_s) <= 1e-9 * max(1.0, previous_s)

    @given(requests=_requests())
    @settings(max_examples=60, deadline=None)
    def test_percentiles_ordered(self, requests):
        arrivals, service_s = requests
        finish_s, _ = serve_fifo(arrivals, service_s)
        sojourn = SojournSummary.from_times(finish_s - arrivals)
        assert (sojourn.p50_s <= sojourn.p95_s <= sojourn.p99_s + 1e-12
                <= sojourn.p999_s + 2e-12 <= sojourn.max_s + 3e-12)

    @given(requests=_requests(max_service_s=0.1))
    @settings(max_examples=60, deadline=None)
    def test_utilization_bounded(self, requests):
        arrivals, service_s = requests
        finish_s, busy_s = serve_fifo(arrivals, service_s)
        horizon_s = max(float(finish_s[-1]), float(arrivals[-1]))
        assert 0.0 < busy_s / horizon_s <= 1.0 + 1e-9

    @given(requests=_requests(max_service_s=0.01),
           slow_factor=st.floats(1.1, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_slower_service_never_reduces_sojourn(self, requests, slow_factor):
        arrivals, service_s = requests
        fast_s, _ = serve_fifo(arrivals, service_s)
        slow_s, _ = serve_fifo(arrivals, service_s * slow_factor)
        assert np.all(slow_s >= fast_s - 1e-12)

    @given(
        count=st.integers(1, 50),
        capacity=st.integers(0, 10),
        service=st.floats(1e-3, 0.1),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_accounting(self, count, capacity, service):
        """Simultaneous arrivals: exactly capacity+1 are admitted, as the
        bounded loop admits them."""
        stats = one_node([service], admission=AdmissionControl(capacity + 1)
                         ).run(np.zeros(count))
        assert stats.completed == min(count, capacity + 1)
        assert stats.completed + stats.rejected == count
        loop = simulate_serving(np.zeros(count), service,
                                queue_capacity=capacity)
        assert (stats.completed, stats.rejected) == (loop.completed,
                                                     loop.dropped)

    @given(
        rate=st.floats(1.0, 30.0),
        service=st.floats(1e-4, 0.01),
        horizon=st.floats(5.0, 15.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_unbounded_equals_huge_capacity(self, rate, service, horizon):
        arrivals = PoissonArrivals(rate, seed=4).generate(horizon)
        unbounded = one_node([service]).run(arrivals)
        capped = one_node([service], admission=AdmissionControl(10**6 + 1)
                          ).run(arrivals)
        assert unbounded.sojourn.mean_s == capped.sojourn.mean_s
        assert capped.rejected == 0
