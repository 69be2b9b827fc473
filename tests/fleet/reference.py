"""Test-only references for the fleet simulator.

* ``water_fill`` finds the water level's bisection threshold directly and
  replays the halvings on floats; :func:`reference_water_fill` is the
  plain 64-step NumPy bisection it replaced.
* :func:`reference_run` is the per-node event loop the array simulator
  replaced: one :class:`RefNode` per replica with a Python-list FIFO,
  ``_advance_fifo``/``_advance_batched``/``_advance_pipeline`` per node, a
  per-node routing loop, and one ``ThermalSimulator`` per node (none for
  a node whose device has no thermal spec: it never heats).

Both are kept as oracles the fast forms must match bit for bit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.summation import serial_sum
from repro.fleet.cluster import PoolSpec, ServiceProfile
from repro.fleet.report import FleetStats, PoolStats, SojournSummary
from repro.fleet.router import RoutingView, interleave
from repro.fleet.simulate import FleetSimulation
from repro.hardware.thermal import ThermalSimulator

_EMPTY = np.empty(0, dtype=np.float64)


def reference_bracket(count: int, base: np.ndarray,
                      limits: np.ndarray) -> tuple[float, float]:
    """``(low, high)`` after 64 halvings; ``limits`` already capped."""
    low = float(base.min())
    high = float((base + limits).max())
    for _ in range(64):
        mid = 0.5 * (low + high)
        supplied = np.clip(mid - base, 0.0, limits).sum()
        if supplied < count:
            low = mid
        else:
            high = mid
    return low, high


def reference_water_fill(count: int, base: np.ndarray,
                         limits: np.ndarray) -> np.ndarray:
    """Water-fill by evaluating the supplied amount at every halving."""
    limits = np.minimum(limits, float(count))
    total_cap = float(limits.sum())
    if total_cap <= count:
        return limits.astype(np.int64)
    _, high = reference_bracket(count, base, limits)
    exact = np.clip(high - base, 0.0, limits)
    quotas = np.floor(exact).astype(np.int64)
    shortfall = count - int(quotas.sum())
    if shortfall > 0:
        fractional = exact - quotas
        fractional = np.where(quotas < limits, fractional, -1.0)
        order = np.lexsort((np.arange(base.size), -fractional))
        quotas[order[:shortfall]] += 1
    return quotas


# -- the per-node fleet loop ---------------------------------------------------
@dataclass
class RefNode:
    """One replica's mutable serving state (the retired ``NodeState``).

    The pending FIFO holds assigned-but-unserved arrival instants;
    ``head`` is the consumption cursor (the list is compacted
    periodically rather than popped per request).  ``free_at_s`` is the
    Lindley clock: when the node finishes everything already started.
    """

    pool: str
    index: int
    profile: ServiceProfile
    active: bool = True
    available_at_s: float = 0.0
    free_at_s: float = 0.0
    busy_s: float = 0.0
    epoch_busy_s: float = 0.0
    completed: int = 0
    batches: int = 0
    shutdown: bool = False
    throttle_scale: float = 1.0
    pending: list[float] = field(default_factory=list)
    head: int = 0
    max_depth: int = 0
    thermal_sim: ThermalSimulator | None = None
    # Per-stage Lindley clocks and busy counters; None for single-node
    # replicas (the discriminator mirrors ``profile.stages``).
    stage_free_at_s: list[float] | None = None
    stage_busy_s: list[float] | None = None
    stage_epoch_busy_s: list[float] | None = None

    def __post_init__(self) -> None:
        if self.thermal_sim is None and self.profile.thermal is not None:
            self.thermal_sim = ThermalSimulator(self.profile.thermal)
        if self.profile.stages is not None and self.stage_free_at_s is None:
            count = len(self.profile.stages)
            self.stage_free_at_s = [0.0] * count
            self.stage_busy_s = [0.0] * count
            self.stage_epoch_busy_s = [0.0] * count

    @property
    def depth(self) -> int:
        """Requests assigned and not yet completed (queued + batching)."""
        return len(self.pending) - self.head

    def outstanding(self, now_s: float) -> int:
        """Queue depth plus the batch still in service at ``now_s``."""
        return self.depth + (1 if self.free_at_s > now_s else 0)

    def assign(self, arrival_times: Iterable[float]) -> int:
        """Append newly routed arrivals (already sorted); returns count."""
        before = len(self.pending)
        self.pending.extend(arrival_times)
        added = len(self.pending) - before
        self.max_depth = max(self.max_depth, self.depth)
        return added

    def compact(self) -> None:
        """Drop consumed prefix so the FIFO does not grow without bound."""
        if self.head:
            del self.pending[:self.head]
            self.head = 0

    def drain_pending(self) -> int:
        """Discard the queue (thermal shutdown); returns requests lost."""
        lost = self.depth
        self.pending.clear()
        self.head = 0
        return lost


class RefCluster:
    """The fleet as a list of :class:`RefNode` objects."""

    def __init__(self, pools: Sequence[PoolSpec],
                 profiles: dict[str, ServiceProfile]):
        self.nodes = [RefNode(pool=pool.name, index=index,
                              profile=profiles[pool.name])
                      for pool in pools for index in range(pool.replicas)]

    def pool_nodes(self, name: str) -> list[RefNode]:
        return [node for node in self.nodes if node.pool == name]


def _advance_fifo(node: RefNode, epoch_end_s: float) -> np.ndarray:
    """Serve a batch-1 node up to ``epoch_end_s``; returns sojourn times.

    The FIFO completion times follow the Lindley recursion
    ``finish_i = max(arrival_i, finish_{i-1}) + service``; with constant
    service ``s`` that closed form is ``finish_i = (i+1)s +
    max(free_at, max_{j<=i}(arrival_j - js))`` — one ``cumsum``-style
    scan, no per-request Python.  Only requests *starting* before the
    epoch end are committed; the rest stay pending so next epoch's
    throttle state can still stretch them.
    """
    service_s = node.profile.service_s * node.throttle_scale
    pending = node.pending
    head = node.head
    count = len(pending) - head
    if count == 0:
        return _EMPTY
    first_start_s = max(pending[head], node.free_at_s)
    if first_start_s >= epoch_end_s:
        return _EMPTY
    if np.isfinite(epoch_end_s):
        # Starts advance by >= service_s each, so the epoch admits at most
        # this many; slicing keeps the scan O(servable), not O(backlog).
        count = min(count, int((epoch_end_s - first_start_s) / service_s) + 2)
    arrivals = np.asarray(pending[head:head + count])
    offsets = service_s * np.arange(count)
    level = np.maximum.accumulate(arrivals - offsets)
    finish = offsets + service_s + np.maximum(node.free_at_s, level)
    starts = finish - service_s
    served = int(np.searchsorted(starts, epoch_end_s, side="left"))
    if not served:
        return _EMPTY
    node.head = head + served
    node.free_at_s = float(finish[served - 1])
    busy_s = served * service_s
    node.busy_s += busy_s
    node.epoch_busy_s += busy_s
    node.completed += served
    node.batches += served
    return finish[:served] - arrivals[:served]


def _advance_batched(node: RefNode, epoch_end_s: float) -> np.ndarray:
    """Serve a dynamic-batching node up to ``epoch_end_s``.

    Greedy ``simulate_batch_serving`` semantics: whenever the node frees
    up it grabs everything queued (up to the pool's effective batch
    limit) and runs it as one batch.  The loop iterates once per batch —
    plain floats and ``bisect``, no ndarray dispatch — and the per-request
    sojourns are expanded vectorially afterwards.  Deferring batches that
    would start after the epoch end is exact: such a batch may only
    contain arrivals up to its start time, and those are all assigned by
    the time the next epoch forms it.
    """
    profile = node.profile
    scale = node.throttle_scale
    wall_s = profile.batch_wall_s
    max_batch = profile.max_batch
    pending = node.pending
    total = len(pending)
    head = node.head
    idx = head
    if idx >= total:
        return _EMPTY
    now_s = node.free_at_s
    finishes: list[float] = []
    sizes: list[int] = []
    busy_s = 0.0
    right = bisect.bisect_right
    while idx < total:
        first = pending[idx]
        start_s = first if first > now_s else now_s
        if start_s >= epoch_end_s:
            break
        size = right(pending, start_s, idx, total) - idx
        if size > max_batch:
            size = max_batch
        duration_s = wall_s[size - 1] * scale
        now_s = start_s + duration_s
        finishes.append(now_s)
        sizes.append(size)
        busy_s += duration_s
        idx += size
    served = idx - head
    if not served:
        return _EMPTY
    arrivals = np.asarray(pending[head:idx])
    finish = np.repeat(finishes, sizes)
    node.head = idx
    node.free_at_s = now_s
    node.busy_s += busy_s
    node.epoch_busy_s += busy_s
    node.completed += served
    node.batches += len(sizes)
    return finish - arrivals


def _advance_pipeline(node: RefNode, epoch_end_s: float) -> np.ndarray:
    """Serve a pipelined node (device chain) up to ``epoch_end_s``.

    Each stage is its own single-server FIFO with constant service time
    (compute plus outgoing transfer), so the chain is a sequence of
    Lindley scans: stage 0 consumes the node's pending arrivals, stage
    ``k`` consumes stage ``k-1``'s finish instants.  A request commits
    when its stage-0 service *starts* before the epoch end — the rest of
    its chain then runs to completion at the current throttle state, the
    pipelined analogue of the batched path running a started batch past
    the epoch boundary.  Sojourns are last-stage finish minus arrival.
    """
    profile = node.profile
    stages = profile.stages
    assert stages is not None
    assert node.stage_free_at_s is not None
    assert node.stage_busy_s is not None
    assert node.stage_epoch_busy_s is not None
    scale = node.throttle_scale
    free = node.stage_free_at_s
    pending = node.pending
    head = node.head
    count = len(pending) - head
    if count == 0:
        return _EMPTY
    first_service_s = stages[0].service_s * scale
    first_start_s = max(pending[head], free[0])
    if first_start_s >= epoch_end_s:
        return _EMPTY
    if np.isfinite(epoch_end_s):
        # Stage-0 starts advance by >= its service each (same cap as the
        # plain FIFO — commitment is decided at stage 0).
        count = min(count, int((epoch_end_s - first_start_s)
                               / first_service_s) + 2)
    arrivals = np.asarray(pending[head:head + count])
    offsets = first_service_s * np.arange(count)
    level = np.maximum.accumulate(arrivals - offsets)
    finish = offsets + first_service_s + np.maximum(free[0], level)
    starts = finish - first_service_s
    served = int(np.searchsorted(starts, epoch_end_s, side="left"))
    if not served:
        return _EMPTY
    finish = finish[:served]
    node.head = head + served
    free[0] = float(finish[-1])
    stage_busy_s = served * first_service_s
    node.stage_busy_s[0] += stage_busy_s
    node.stage_epoch_busy_s[0] += stage_busy_s
    total_busy_s = stage_busy_s
    for position in range(1, len(stages)):
        service_s = stages[position].service_s * scale
        offsets = service_s * np.arange(served)
        level = np.maximum.accumulate(finish - offsets)
        finish = offsets + service_s + np.maximum(free[position], level)
        free[position] = float(finish[-1])
        stage_busy_s = served * service_s
        node.stage_busy_s[position] += stage_busy_s
        node.stage_epoch_busy_s[position] += stage_busy_s
        total_busy_s += stage_busy_s
    node.free_at_s = free[-1]  # the chain frees when its last stage does
    node.busy_s += total_busy_s
    node.epoch_busy_s += total_busy_s
    node.completed += served
    node.batches += served
    return finish - arrivals[:served]


def _advance(node: RefNode, epoch_end_s: float) -> np.ndarray:
    if node.profile.stages is not None:
        return _advance_pipeline(node, epoch_end_s)
    if node.profile.max_batch == 1:
        return _advance_fifo(node, epoch_end_s)
    return _advance_batched(node, epoch_end_s)


def reference_run(simulation: FleetSimulation, arrival_times: np.ndarray, *,
                  seed: int = 0) -> FleetStats:
    """``simulation.run`` as the per-node loop computed it."""
    return _Reference(simulation).run(arrival_times, seed=seed)


class _Reference:
    def __init__(self, simulation: FleetSimulation):
        self.pools = simulation.pools
        self.profiles = simulation.profiles
        self.router = simulation.router
        self.autoscaler = simulation.autoscaler
        self.admission = simulation.admission
        self.epochs = simulation.epochs
        self._cooldowns: dict[str, int] = {}

    def _headroom(self, outstanding: int) -> float:
        limit = self.admission.max_queue_per_node
        if limit is None:
            return float("inf")
        return float(max(0, limit - outstanding))

    def run(self, arrival_times: np.ndarray, *, seed: int = 0) -> FleetStats:
        arrivals = np.asarray(arrival_times, dtype=np.float64)
        if arrivals.size == 0:
            return self._build_stats(
                RefCluster(self.pools, self.profiles), arrivals,
                {pool.name: [] for pool in self.pools},
                {pool.name: 0 for pool in self.pools},
                {pool.name: 0 for pool in self.pools}, 0, 0, 0, seed)
        self.router.reset()
        cluster = RefCluster(self.pools, self.profiles)
        nodes = cluster.nodes
        if self.autoscaler is not None:
            floor = self.autoscaler.min_replicas
            for pool in self.pools:
                for node in cluster.pool_nodes(pool.name)[floor:]:
                    node.active = False

        span_s = float(arrivals[-1])
        edges = np.linspace(0.0, max(span_s, 1e-9), self.epochs + 1)
        boundaries = np.searchsorted(arrivals, edges, side="left")
        boundaries[-1] = arrivals.size

        energy = np.array([node.profile.energy_per_request_j for node in nodes])
        full_batch_s = [node.profile.full_batch_request_s for node in nodes]
        sojourn_chunks: dict[str, list[np.ndarray]] = {
            pool.name: [] for pool in self.pools}
        assigned: dict[str, int] = {pool.name: 0 for pool in self.pools}
        dropped: dict[str, int] = {pool.name: 0 for pool in self.pools}
        rejected = 0
        scale_ups = 0
        scale_downs = 0

        for index in range(self.epochs):
            epoch_start_s = float(edges[index])
            epoch_end_s = float(edges[index + 1])
            dt_s = epoch_end_s - epoch_start_s
            if self.autoscaler is not None:
                for pool in self.pools:
                    action = self._scale(
                        pool.name, cluster.pool_nodes(pool.name), epoch_start_s)
                    scale_ups += action > 0
                    scale_downs += action < 0
            lo = int(boundaries[index])
            hi = int(boundaries[index + 1])
            if hi > lo:
                rejected += self._route(nodes, arrivals[lo:hi],
                                        epoch_start_s, epoch_end_s, assigned,
                                        energy, full_batch_s)
            for node in nodes:
                node.epoch_busy_s = 0.0
                if node.stage_epoch_busy_s is not None:
                    for position in range(len(node.stage_epoch_busy_s)):
                        node.stage_epoch_busy_s[position] = 0.0
                    assert node.stage_free_at_s is not None
                    bottleneck = node.profile.bottleneck_index
                    carry_s = max(0.0, node.stage_free_at_s[bottleneck]
                                  - epoch_start_s)
                else:
                    carry_s = max(0.0, node.free_at_s - epoch_start_s)
                if node.depth and not node.shutdown:
                    sojourns = _advance(node, epoch_end_s)
                    if sojourns.size:
                        sojourn_chunks[node.pool].append(sojourns)
                    if node.head > 1024 and node.head * 2 >= len(node.pending):
                        node.compact()
                if dt_s > 0.0:
                    self._step_thermal(node, carry_s, dt_s, dropped)

        for node in nodes:
            if node.depth and not node.shutdown:
                sojourns = _advance(node, np.inf)
                if sojourns.size:
                    sojourn_chunks[node.pool].append(sojourns)

        return self._build_stats(cluster, arrivals, sojourn_chunks, assigned,
                                 dropped, rejected, scale_ups, scale_downs,
                                 seed)

    def _scale(self, pool_name: str, nodes: list[RefNode],
               now_s: float) -> int:
        """Apply one epoch's decision to a pool's nodes.

        Returns -1, 0 or +1 (the action taken).  Scale-up activates the
        longest-parked standby replica and charges the deployment's init
        time before it becomes routable; scale-down deactivates the
        active replica with the shortest queue so the drain is quick.
        """
        remaining = self._cooldowns.get(pool_name, 0)
        if remaining > 0:
            self._cooldowns[pool_name] = remaining - 1
            return 0
        serving = [node for node in nodes if node.active and not node.shutdown]
        standby = [node for node in nodes if not node.active and not node.shutdown]
        if not serving:
            if not standby:
                return 0
            self._activate(standby[0], now_s)
            self._cooldowns[pool_name] = self.autoscaler.cooldown_epochs
            return 1
        depth = sum(node.outstanding(now_s) for node in serving) / len(serving)
        if depth > self.autoscaler.high_depth and standby:
            self._activate(standby[0], now_s)
            self._cooldowns[pool_name] = self.autoscaler.cooldown_epochs
            return 1
        if depth < self.autoscaler.low_depth and len(serving) > self.autoscaler.min_replicas:
            quietest = min(serving, key=lambda node: (node.depth, node.index))
            quietest.active = False
            self._cooldowns[pool_name] = self.autoscaler.cooldown_epochs
            return -1
        return 0

    @staticmethod
    def _activate(node: RefNode, now_s: float) -> None:
        node.active = True
        node.available_at_s = now_s + node.profile.init_time_s

    def _route(self, nodes: list[RefNode], epoch_times: np.ndarray,
               epoch_start_s: float, epoch_end_s: float,
               assigned: dict[str, int], energy: np.ndarray,
               full_batch_s: list[float]) -> int:
        """Assign one epoch's arrivals; returns the rejected count.

        ``energy`` and ``full_batch_s`` are each node's profile constants
        (``energy_per_request_j``, ``full_batch_request_s``).
        """
        count = int(epoch_times.size)
        outstanding = np.empty(len(nodes), dtype=np.float64)
        limits = np.empty(len(nodes), dtype=np.float64)
        capacity = np.empty(len(nodes), dtype=np.float64)
        for position, node in enumerate(nodes):
            pending = node.outstanding(epoch_start_s)
            outstanding[position] = pending
            routable = (node.active and not node.shutdown
                        and node.available_at_s <= epoch_start_s)
            limits[position] = self._headroom(pending) if routable else 0.0
            spare_s = epoch_end_s - max(node.free_at_s, epoch_start_s)
            per_request_s = full_batch_s[position] * node.throttle_scale
            capacity[position] = min(count, max(0.0, spare_s) / per_request_s)
        view = RoutingView(outstanding=outstanding, limits=limits,
                           energy_per_request_j=energy, capacity=capacity)
        quotas = np.minimum(self.router.quotas(view, count),
                            limits).astype(np.int64)
        total = int(quotas.sum())
        assert total <= count, "router over-assigned the epoch"
        if total:
            assignment, _ = interleave(quotas)
            order = np.argsort(assignment, kind="stable")
            admitted = epoch_times[:total][order].tolist()
            start = 0
            for node, quota in zip(nodes, quotas.tolist()):
                if quota:
                    node.assign(admitted[start:start + quota])
                    assigned[node.pool] += quota
                    start += quota
        return count - total

    def _step_thermal(self, node: RefNode, carry_s: float, dt_s: float,
                      dropped: dict[str, int]) -> None:
        """Integrate one epoch of heat; apply throttle/shutdown effects.

        The epoch's average draw interpolates idle and under-load power by
        the busy fraction (``carry_s`` covers work continuing from earlier
        epochs; batches running past the epoch end are clipped and show up
        again in the next epoch's carry).
        """
        sim = node.thermal_sim
        if sim is None or sim.shutdown:
            return
        profile = node.profile
        if profile.stages is not None:
            # The profile's thermal spec belongs to the bottleneck stage's
            # device, so integrate that stage's duty cycle and draw.
            assert node.stage_epoch_busy_s is not None
            bottleneck = profile.bottleneck_index
            stage = profile.stages[bottleneck]
            busy_frac = min(1.0, (carry_s + node.stage_epoch_busy_s[bottleneck])
                            / dt_s)
            power_w = stage.idle_w + busy_frac * (stage.power_w - stage.idle_w)
        else:
            busy_frac = min(1.0, (carry_s + node.epoch_busy_s) / dt_s)
            power_w = profile.idle_w + busy_frac * (profile.power_w
                                                    - profile.idle_w)
        sim.step(power_w, dt_s)
        if sim.shutdown:
            node.shutdown = True
            node.active = False
            dropped[node.pool] += node.drain_pending()
            return
        node.throttle_scale = 1.0 / sim.clock_factor if sim.throttled else 1.0

    def _build_stats(self, cluster: RefCluster, arrivals: np.ndarray,
                     sojourn_chunks: dict[str, list[np.ndarray]],
                     assigned: dict[str, int], dropped: dict[str, int],
                     rejected: int, scale_ups: int, scale_downs: int,
                     seed: int) -> FleetStats:
        horizon_s = max(float(arrivals[-1]) if arrivals.size else 0.0,
                        max(node.free_at_s for node in cluster.nodes))
        pool_stats: list[PoolStats] = []
        fleet_sojourns: list[np.ndarray] = []
        fleet_energy_j = 0.0
        for pool in self.pools:
            pool_nodes = cluster.pool_nodes(pool.name)
            profile = self.profiles[pool.name]
            sojourn_s = (np.concatenate(sojourn_chunks[pool.name])
                         if sojourn_chunks[pool.name] else _EMPTY)
            fleet_sojourns.append(sojourn_s)
            completed = sum(node.completed for node in pool_nodes)
            batches = sum(node.batches for node in pool_nodes)
            busy_s = serial_sum(node.busy_s for node in pool_nodes)
            if profile.stages is not None:
                # One energy integral per stage device: each stage idles
                # whenever it is not computing or sending.
                energy_j = serial_sum(
                    node.stage_busy_s[position] * stage.power_w
                    + (horizon_s - node.stage_busy_s[position]) * stage.idle_w
                    for node in pool_nodes
                    for position, stage in enumerate(profile.stages))
                device_seconds = (len(pool_nodes) * len(profile.stages)
                                  * horizon_s)
            else:
                energy_j = serial_sum(
                    node.busy_s * profile.power_w
                    + (horizon_s - node.busy_s) * profile.idle_w
                    for node in pool_nodes)
                device_seconds = len(pool_nodes) * horizon_s
            fleet_energy_j += energy_j
            events = [event for node in pool_nodes if node.thermal_sim
                      for event in node.thermal_sim.events]
            pool_stats.append(PoolStats(
                name=pool.name,
                scenario=pool.scenario.to_dict(),
                replicas=pool.replicas,
                effective_max_batch=profile.max_batch,
                assigned=assigned[pool.name],
                completed=completed,
                dropped=dropped[pool.name],
                batches=batches,
                mean_batch_size=completed / batches if batches else 0.0,
                max_queue_depth=max(node.max_depth for node in pool_nodes),
                utilization=(busy_s / device_seconds
                             if device_seconds > 0 else 0.0),
                throughput_rps=(completed / horizon_s
                                if horizon_s > 0 else 0.0),
                sojourn=SojournSummary.from_times(sojourn_s),
                energy_j=energy_j,
                energy_per_request_j=energy_j / completed if completed else 0.0,
                throttle_events=sum(event.kind == "throttle_on"
                                    for event in events),
                fan_events=sum(event.kind == "fan_on" for event in events),
                shutdown_events=sum(event.kind == "shutdown"
                                    for event in events),
                final_active_replicas=sum(node.active and not node.shutdown
                                          for node in pool_nodes),
            ))
        all_sojourn_s = (np.concatenate(fleet_sojourns)
                         if fleet_sojourns else _EMPTY)
        completed = int(sum(stats.completed for stats in pool_stats))
        return FleetStats(
            requests=int(arrivals.size),
            completed=completed,
            dropped=sum(stats.dropped for stats in pool_stats),
            rejected=rejected,
            horizon_s=horizon_s,
            throughput_rps=completed / horizon_s if horizon_s > 0 else 0.0,
            sojourn=SojournSummary.from_times(all_sojourn_s),
            energy_j=fleet_energy_j,
            energy_per_request_j=(fleet_energy_j / completed
                                  if completed else 0.0),
            throttle_events=sum(stats.throttle_events for stats in pool_stats),
            fan_events=sum(stats.fan_events for stats in pool_stats),
            shutdown_events=sum(stats.shutdown_events for stats in pool_stats),
            scale_ups=scale_ups,
            scale_downs=scale_downs,
            policy=self.router.name,
            seed=seed,
            epochs=self.epochs,
            pools=tuple(pool_stats),
        )
