"""Test-only oracles: the serving loops the fleet path replaced.

* :func:`simulate_serving` is the per-request FIFO loop with lognormal
  service jitter and a queue cap that served ``ext-serving``;
* :func:`simulate_batch_serving` is the greedy dynamic-batching loop that
  served ``ext-batch-serving``, and :func:`batched_latency_fn` prices its
  batches with one engine session per batch size.

Both loops are kept verbatim.  :func:`repro.fleet.lindley` and a
one-replica :class:`~repro.fleet.FleetSimulation` must match them:
:func:`serve_fifo` runs the kernel as ``ext-serving`` does, and
:func:`one_node` builds that fleet with any per-batch wall times.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.engine.executor import EngineConfig, InferenceSession
from repro.fleet import AdmissionControl, FleetSimulation, PoolSpec, lindley
from repro.frameworks.base import DeployedModel
from repro.runtime import Scenario

_SCENARIO = Scenario("ResNet-18", "Jetson Nano", "TensorRT")


def serve_fifo(arrivals: np.ndarray, service_s) -> tuple[np.ndarray, float]:
    """(finish instants, busy seconds) of a lone FIFO server with constant
    or per-request service times: the kernel fed their exclusive
    cumulative sum as start offsets."""
    service_s = np.broadcast_to(np.asarray(service_s, dtype=float),
                                arrivals.shape)
    busy_s = np.cumsum(service_s)
    finish_s = lindley(arrivals, np.concatenate(([0.0], busy_s[:-1])),
                       service_s, 0.0)
    return finish_s, float(busy_s[-1])


def one_node(batch_wall_s: Sequence[float], *,
             admission: AdmissionControl | None = None,
             epochs: int = 1) -> FleetSimulation:
    """A one-replica fleet that runs a batch of ``b`` requests in
    ``batch_wall_s[b - 1]`` seconds (batch limit ``len(batch_wall_s)``).

    The node has no thermal spec, so it never heats or throttles; its
    power figures are a Jetson Nano's.
    """
    simulation = FleetSimulation(
        [PoolSpec(name="node", scenario=_SCENARIO, replicas=1)],
        admission=admission, epochs=epochs)
    simulation.profiles["node"] = dataclasses.replace(
        simulation.profiles["node"], batch_wall_s=tuple(batch_wall_s),
        max_batch=len(batch_wall_s), thermal=None)
    return simulation


@dataclass(frozen=True)
class QueueStats:
    """Outcome of one serving simulation."""

    requests: int
    completed: int
    dropped: int
    utilization: float
    mean_sojourn_s: float
    p50_sojourn_s: float
    p95_sojourn_s: float
    p99_sojourn_s: float
    p999_sojourn_s: float
    max_queue_depth: int
    mean_wait_s: float

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.requests if self.requests else 0.0

    def meets_deadline(self, deadline_s: float, percentile: float = 0.99) -> bool:
        """True when the given sojourn percentile fits the deadline and no
        request was dropped."""
        if self.dropped:
            return False
        target = {0.5: self.p50_sojourn_s, 0.95: self.p95_sojourn_s,
                  0.99: self.p99_sojourn_s,
                  0.999: self.p999_sojourn_s}.get(percentile)
        if target is None:
            raise ValueError(f"unsupported percentile {percentile}")
        return target <= deadline_s


def simulate_serving(
    arrival_times: np.ndarray,
    service_time_s: float,
    queue_capacity: int | None = None,
    service_jitter_fraction: float = 0.0,
    seed: int = 0,
) -> QueueStats:
    """Serve ``arrival_times`` FIFO on one server.

    Args:
        arrival_times: sorted arrival instants (seconds).
        service_time_s: per-request service time (a session's latency).
        queue_capacity: maximum requests waiting (not counting the one in
            service); arrivals beyond it are dropped.  ``None`` = unbounded.
        service_jitter_fraction: lognormal sigma on service times.
        seed: RNG seed for the jitter.
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    if arrivals.size == 0:
        raise ValueError("no arrivals to serve")
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival times must be sorted")
    if service_time_s <= 0:
        raise ValueError("service time must be positive")

    rng = np.random.default_rng(seed)
    if service_jitter_fraction:
        services = service_time_s * rng.lognormal(
            0.0, service_jitter_fraction, size=arrivals.size)
    else:
        services = np.full(arrivals.size, service_time_s)

    finish = 0.0
    sojourns: list[float] = []
    waits: list[float] = []
    finish_times: list[float] = []  # completions of admitted requests
    dropped = 0
    busy_s = 0.0
    max_depth = 0
    import bisect

    for arrival, service in zip(arrivals, services):
        # Queue depth seen on arrival: admitted requests not yet finished.
        # FIFO service keeps finish_times sorted, so count by bisection.
        pending = len(finish_times) - bisect.bisect_right(finish_times, arrival)
        waiting = max(0, pending - 1)
        # Dropped only when the request would have to wait AND the waiting
        # room is full; an idle server always admits.
        if queue_capacity is not None and pending > 0 and waiting >= queue_capacity:
            dropped += 1
            continue
        start = max(arrival, finish)
        finish = start + service
        finish_times.append(finish)
        waits.append(start - arrival)
        sojourns.append(finish - arrival)
        busy_s += service
        max_depth = max(max_depth, waiting + 1)

    if not sojourns:
        return QueueStats(
            requests=arrivals.size, completed=0, dropped=dropped,
            utilization=0.0, mean_sojourn_s=0.0, p50_sojourn_s=0.0,
            p95_sojourn_s=0.0, p99_sojourn_s=0.0, p999_sojourn_s=0.0,
            max_queue_depth=0, mean_wait_s=0.0,
        )
    horizon = max(finish, arrivals[-1])
    sojourn_array = np.asarray(sojourns)
    return QueueStats(
        requests=int(arrivals.size),
        completed=len(sojourns),
        dropped=dropped,
        utilization=float(busy_s / horizon),
        mean_sojourn_s=float(sojourn_array.mean()),
        p50_sojourn_s=float(np.percentile(sojourn_array, 50)),
        p95_sojourn_s=float(np.percentile(sojourn_array, 95)),
        p99_sojourn_s=float(np.percentile(sojourn_array, 99)),
        p999_sojourn_s=float(np.percentile(sojourn_array, 99.9)),
        max_queue_depth=max_depth,
        mean_wait_s=float(np.mean(waits)),
    )


@dataclass(frozen=True)
class BatchServerStats:
    """Outcome of a dynamic-batching run."""

    requests: int
    batches: int
    mean_batch_size: float
    max_batch_observed: int
    throughput_rps: float
    mean_sojourn_s: float
    p99_sojourn_s: float
    p999_sojourn_s: float
    utilization: float


def batched_latency_fn(deployed: DeployedModel,
                       max_batch: int) -> Callable[[int], float]:
    """Per-BATCH wall time as a function of batch size, engine-backed.

    Sessions are built lazily per batch size and cached; the returned
    callable gives the time to finish a whole batch (per-inference latency
    times the batch size).
    """
    cache: dict[int, float] = {}

    def batch_time(batch_size: int) -> float:
        if batch_size not in cache:
            session = InferenceSession(
                deployed, config=EngineConfig(batch_size=batch_size))
            cache[batch_size] = session.latency_s * batch_size
        return cache[batch_size]

    # Pre-validate the largest batch so OOM surfaces at setup, not mid-run.
    batch_time(max_batch)
    return batch_time


def simulate_batch_serving(
    arrival_times: np.ndarray,
    batch_time_fn: Callable[[int], float],
    max_batch: int,
) -> BatchServerStats:
    """Greedy dynamic batching: when free, serve everything queued (<= max).

    Args:
        arrival_times: sorted arrival instants.
        batch_time_fn: batch size -> seconds to complete that batch.
        max_batch: upper bound on one batch.
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    if arrivals.size == 0:
        raise ValueError("no arrivals to serve")
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival times must be sorted")
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")

    index = 0
    now = 0.0
    busy_s = 0.0
    sojourns: list[float] = []
    batch_sizes: list[int] = []
    n = arrivals.size
    # The serving loop runs once per batch — plain floats and bisect keep
    # it out of per-element ndarray dispatch (identical doubles either way).
    instants = arrivals.tolist()
    while index < n:
        if instants[index] > now:
            now = instants[index]  # idle until work exists
        # Everything that has arrived by `now` is queued; grab up to max.
        queued_end = bisect.bisect_right(instants, now)
        batch = min(max_batch, queued_end - index)
        batch = max(batch, 1)
        duration = batch_time_fn(batch)
        finish = now + duration
        sojourns.extend(finish - instant
                        for instant in instants[index:index + batch])
        busy_s += duration
        batch_sizes.append(batch)
        index += batch
        now = finish

    horizon = max(now, float(arrivals[-1]))
    sojourn_array = np.asarray(sojourns)
    return BatchServerStats(
        requests=n,
        batches=len(batch_sizes),
        mean_batch_size=float(np.mean(batch_sizes)),
        max_batch_observed=max(batch_sizes),
        throughput_rps=n / horizon,
        mean_sojourn_s=float(sojourn_array.mean()),
        p99_sojourn_s=float(np.percentile(sojourn_array, 99)),
        p999_sojourn_s=float(np.percentile(sojourn_array, 99.9)),
        utilization=float(busy_s / horizon),
    )
