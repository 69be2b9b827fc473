"""The fleet event loop: vectorized Lindley scans between routing epochs.

A discrete-event simulator in the classic sense would push every request
through a Python heap — microseconds each, minutes per million.  This
loop instead advances the whole fleet epoch by epoch:

1. the horizon is cut into routing epochs (``np.linspace`` edges; one
   ``np.searchsorted`` maps every arrival to its epoch up front);
2. at each epoch boundary the autoscaler adjusts pools, the admission
   policy computes per-node headroom, and the router turns the epoch's
   arrival count into per-node quotas (all vectorized);
3. each node then serves its FIFO with an array program: batch-1 pools
   run the Lindley recursion as a ``np.maximum.accumulate`` scan,
   dynamic-batching pools run one lean iteration per *batch* (not per
   request), exactly the greedy ``batch_server`` semantics, and
   pipelined pools (multi-stage ``Deployment`` replicas) chain one
   Lindley scan per stage — stage ``k`` consumes stage ``k-1``'s finish
   instants;
4. at the epoch's end every node's thermal RC model integrates the
   epoch's average power — DVFS throttling stretches the next epoch's
   service times, and a shutdown drops the node's queue (the Raspberry
   Pi's Figure 14 fate, fleet edition).

Within a node the serving schedule is exact; the epoch grid only
quantizes *routing* decisions (a request cannot be steered by state
younger than one epoch) and thermal integration.  Everything is
deterministic: service times come from cached ``RunRecord``s, arrival
streams are seeded, and policies break ties by index — the same inputs
produce byte-identical :class:`~repro.fleet.report.FleetStats`.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from repro.fleet.autoscale import AdmissionControl, Autoscaler
from repro.fleet.cluster import Cluster, NodeState, PoolSpec, resolve_profiles
from repro.fleet.report import FleetStats, PoolStats, SojournSummary
from repro.fleet.router import Router, RoutingView, interleave, make_router
from repro.runtime.runner import Runner
from repro.workloads.arrivals import Arrivals, first_n, reseeded

DEFAULT_EPOCHS = 1024
DEFAULT_POLICY = "least-outstanding"

_EMPTY = np.empty(0, dtype=np.float64)


def _advance_fifo(node: NodeState, epoch_end_s: float) -> np.ndarray:
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


def _advance_batched(node: NodeState, epoch_end_s: float) -> np.ndarray:
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


def _advance_pipeline(node: NodeState, epoch_end_s: float) -> np.ndarray:
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


def _advance(node: NodeState, epoch_end_s: float) -> np.ndarray:
    if node.profile.stages is not None:
        return _advance_pipeline(node, epoch_end_s)
    if node.profile.max_batch == 1:
        return _advance_fifo(node, epoch_end_s)
    return _advance_batched(node, epoch_end_s)


class FleetSimulation:
    """A configured fleet, ready to run arrival streams.

    Pool service profiles are resolved once at construction — a single
    ``Runner.run_grid`` over every (pool, batch size) cell, cached and
    bit-identical to the scalar engine path.  Each :meth:`run` rebuilds
    the mutable node state, so repeated runs of the same stream are
    independent and identical.
    """

    def __init__(self, pools: Sequence[PoolSpec], *,
                 router: Router | str = DEFAULT_POLICY,
                 autoscaler: Autoscaler | None = None,
                 admission: AdmissionControl | None = None,
                 epochs: int = DEFAULT_EPOCHS,
                 runner: Runner | None = None,
                 use_timer: bool = False):
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if not pools:
            raise ValueError("a fleet needs at least one pool")
        self.pools = list(pools)
        self.router = make_router(router) if isinstance(router, str) else router
        self.autoscaler = autoscaler
        self.admission = admission or AdmissionControl()
        self.epochs = epochs
        self.profiles = resolve_profiles(self.pools, runner=runner,
                                         use_timer=use_timer)

    @property
    def capacity_rps(self) -> float:
        """Fleet-wide peak service rate with every replica at full batch."""
        return sum(pool.replicas / self.profiles[pool.name].full_batch_request_s
                   for pool in self.pools)

    def run(self, arrival_times: np.ndarray, *, seed: int = 0) -> FleetStats:
        """Serve one arrival stream; returns the :class:`FleetStats` report."""
        arrivals = np.asarray(arrival_times, dtype=np.float64)
        if np.any(np.diff(arrivals) < 0):
            raise ValueError("arrival times must be sorted")
        # The epoch grid spans [0, last arrival]: NaN, inf or a negative
        # instant would fall off it and never be routed.
        if arrivals.size and not (np.isfinite(arrivals).all()
                                  and arrivals[0] >= 0):
            raise ValueError("arrival times must be finite and >= 0")
        if arrivals.size == 0:
            # A zero-request run is a valid degenerate simulation: the
            # report is all zeros and never meets an SLO.
            return self._build_stats(
                Cluster(self.pools, self.profiles), arrivals,
                {pool.name: [] for pool in self.pools},
                {pool.name: 0 for pool in self.pools},
                {pool.name: 0 for pool in self.pools}, 0, 0, 0, seed)
        self.router.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        cluster = Cluster(self.pools, self.profiles)
        nodes = cluster.nodes
        if self.autoscaler is not None:
            self._park_standby_replicas(cluster)

        span_s = float(arrivals[-1])
        edges = np.linspace(0.0, max(span_s, 1e-9), self.epochs + 1)
        boundaries = np.searchsorted(arrivals, edges, side="left")
        boundaries[-1] = arrivals.size

        # Per-node routing constants: profiles do not change during a run.
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
                    action = self.autoscaler.scale(
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
                    # Pipelined node: thermal tracks the bottleneck stage,
                    # so the carry is that stage's overhang.
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

        # Drain: every queued request completes past the horizon (the
        # throttle state is frozen; no further thermal transitions).
        for node in nodes:
            if node.depth and not node.shutdown:
                sojourns = _advance(node, np.inf)
                if sojourns.size:
                    sojourn_chunks[node.pool].append(sojourns)

        return self._build_stats(cluster, arrivals, sojourn_chunks, assigned,
                                 dropped, rejected, scale_ups, scale_downs,
                                 seed)

    # -- epoch stages --------------------------------------------------------
    def _park_standby_replicas(self, cluster: Cluster) -> None:
        """With an autoscaler, pools start at min_replicas active."""
        assert self.autoscaler is not None
        floor = self.autoscaler.min_replicas
        for pool in self.pools:
            for node in cluster.pool_nodes(pool.name)[floor:]:
                node.active = False

    def _route(self, nodes: list[NodeState], epoch_times: np.ndarray,
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
            limits[position] = self.admission.headroom(pending) if routable else 0.0
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
            assignment = interleave(quotas)
            order = np.argsort(assignment, kind="stable")
            admitted = epoch_times[:total][order].tolist()
            start = 0
            for node, quota in zip(nodes, quotas.tolist()):
                if quota:
                    node.assign(admitted[start:start + quota])
                    assigned[node.pool] += quota
                    start += quota
        return count - total

    def _step_thermal(self, node: NodeState, carry_s: float, dt_s: float,
                      dropped: dict[str, int]) -> None:
        """Integrate one epoch of heat; apply throttle/shutdown effects.

        The epoch's average draw interpolates idle and under-load power by
        the busy fraction (``carry_s`` covers work continuing from earlier
        epochs; batches running past the epoch end are clipped and show up
        again in the next epoch's carry).
        """
        sim = node.thermal_sim
        assert sim is not None
        if sim.shutdown:
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

    # -- reporting -----------------------------------------------------------
    def _build_stats(self, cluster: Cluster, arrivals: np.ndarray,
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
            busy_s = sum(node.busy_s for node in pool_nodes)
            if profile.stages is not None:
                # One energy integral per stage device: each stage idles
                # whenever it is not computing or sending.
                energy_j = sum(
                    node.stage_busy_s[position] * stage.power_w
                    + (horizon_s - node.stage_busy_s[position]) * stage.idle_w
                    for node in pool_nodes
                    for position, stage in enumerate(profile.stages))
                device_seconds = (len(pool_nodes) * len(profile.stages)
                                  * horizon_s)
            else:
                energy_j = sum(
                    node.busy_s * profile.power_w
                    + (horizon_s - node.busy_s) * profile.idle_w
                    for node in pool_nodes)
                device_seconds = len(pool_nodes) * horizon_s
            fleet_energy_j += energy_j
            events = [event for node in pool_nodes
                      for event in node.thermal_sim.events]  # type: ignore[union-attr]
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


def simulate_fleet(pools: Sequence[PoolSpec],
                   workload: Arrivals | np.ndarray, *,
                   requests: int | None = None,
                   horizon_s: float | None = None,
                   seed: int = 0,
                   router: Router | str = DEFAULT_POLICY,
                   autoscaler: Autoscaler | None = None,
                   admission: AdmissionControl | None = None,
                   epochs: int = DEFAULT_EPOCHS,
                   runner: Runner | None = None,
                   use_timer: bool = False) -> FleetStats:
    """One-call fleet run: price pools, generate the stream, simulate.

    Args:
        pools: the fleet's device pools.
        workload: an :class:`~repro.workloads.arrivals.Arrivals` process
            (re-seeded with ``seed`` so one knob controls the run) or an
            explicit sorted array of arrival instants.
        requests: with a process, draw exactly this many arrivals
            (``first_n``); mutually exclusive with ``horizon_s``.
        horizon_s: with a process, generate over this horizon instead.
        seed: the run's seed — applied to the workload process and
            recorded in the report.
        router: policy instance or registry name
            (:data:`~repro.fleet.router.ROUTER_POLICIES`).
        autoscaler / admission: optional scaling and admission control.
        epochs: routing-epoch count (finer = fresher routing state).
        runner / use_timer: the measurement path for pool pricing.
    """
    if isinstance(workload, np.ndarray):
        if requests is not None or horizon_s is not None:
            raise ValueError("requests/horizon_s only apply to arrival "
                             "processes, not explicit arrival arrays")
        arrival_times = workload
    else:
        process = reseeded(workload, seed)
        if requests is not None and horizon_s is not None:
            raise ValueError("pass requests or horizon_s, not both")
        if requests is not None:
            arrival_times = first_n(process, requests)
        elif horizon_s is not None:
            arrival_times = process.generate(horizon_s)
        else:
            raise ValueError("an arrival process needs requests= or horizon_s=")
    simulation = FleetSimulation(pools, router=router, autoscaler=autoscaler,
                                 admission=admission, epochs=epochs,
                                 runner=runner, use_timer=use_timer)
    return simulation.run(arrival_times, seed=seed)
