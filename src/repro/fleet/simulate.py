"""The fleet event loop: array kernels between routing epochs.

A discrete-event simulator in the classic sense would push every request
through a Python heap — microseconds each, minutes per million.  This
loop instead advances the whole fleet epoch by epoch, every node's state
held in the arrays of one :class:`~repro.fleet.cluster.Cluster`:

1. the horizon is cut into routing epochs (``np.linspace`` edges; one
   ``np.searchsorted`` maps every arrival to its epoch up front);
2. at each epoch boundary the autoscaler adjusts pools, the admission
   policy computes per-node headroom, and the router turns the epoch's
   arrival count into per-node quotas; the routing view is read straight
   from the arrays and the admitted arrivals are scattered into the
   nodes' FIFO rows in one ``np.put``;
3. every batch-1 node — a plain FIFO is a one-stage chain, a pipelined
   replica (multi-stage ``Deployment``) a longer one — is served by one
   padded Lindley kernel per stage: a ``np.maximum.accumulate`` scan over
   a (nodes x requests) matrix, stage ``k`` consuming stage ``k-1``'s
   finish instants.  Dynamic-batching pools run one lean iteration per
   *batch* (not per request): a node that frees up grabs everything
   queued, up to its batch limit;
4. at the epoch's end one array step integrates every node's thermal RC
   model at the epoch's average power — DVFS throttling stretches the
   next epoch's service times, and a shutdown drops the node's queue (the
   Raspberry Pi's Figure 14 fate, fleet edition).

Within a node the serving schedule is exact; the epoch grid only
quantizes *routing* decisions (a request cannot be steered by state
younger than one epoch) and thermal integration.  Everything is
deterministic: service times come from cached ``RunRecord``s, arrival
streams are seeded, and policies break ties by index — the same inputs
produce byte-identical :class:`~repro.fleet.report.FleetStats`.

The arrays reproduce the per-node arithmetic bit for bit (elementwise
``+ - * /`` and ``maximum`` only, ``math.exp``, left-to-right totals in
node order (:mod:`repro.core.summation`), sojourns in epoch-major,
node-minor order; see docs/fleet.md).
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from repro.core.summation import serial_sum, serial_sum_array
from repro.fleet.autoscale import AdmissionControl, Autoscaler
from repro.fleet.cluster import Cluster, PoolSpec, ServiceProfile, resolve_profiles
from repro.fleet.report import FleetStats, PoolStats, SojournSummary
from repro.fleet.router import Router, RoutingView, make_router
from repro.runtime.runner import Runner
from repro.workloads.arrivals import Arrivals, first_n, reseeded

DEFAULT_EPOCHS = 1024
DEFAULT_POLICY = "least-outstanding"

_EMPTY = np.empty(0, dtype=np.float64)


def lindley(arrivals: np.ndarray, offsets_s: np.ndarray,
            service_s: np.ndarray | float,
            free_s: np.ndarray | float) -> np.ndarray:
    """Finish instants of FIFO servers, one server per row (last axis).

    The Lindley recursion ``finish_i = max(arrival_i, finish_{i-1}) + s_i``
    has the closed form ``finish_i = O_i + s_i + max(free, max_{j<=i}
    (arrival_j - O_j))``, where request ``i``'s start offset ``O_i = s_0 +
    ... + s_{i-1}`` is the service of the requests ahead of it: one
    ``maximum.accumulate`` scan per row.  The arguments broadcast.  The
    fleet passes one constant service per row, ``O = s * arange(n)``; a
    server with per-request service times passes their exclusive
    cumulative sum.  Rows padded with ``inf`` arrivals finish at ``inf``.
    """
    level = np.maximum.accumulate(arrivals - offsets_s, axis=-1)
    # Finish instants in seconds: an array, which no unit annotation names.
    return offsets_s + service_s + np.maximum(free_s, level)  # repro: allow[UNIT008]


class FleetSimulation:
    """A configured fleet, ready to run arrival streams.

    Pool service profiles are resolved once at construction — a single
    ``Runner.run_grid`` over every (pool, batch size) cell, cached and
    bit-identical to the scalar engine path.  Each :meth:`run` builds a
    fresh :class:`Cluster`, so repeated runs of the same stream are
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
        return serial_sum(pool.replicas / self.profiles[pool.name].full_batch_request_s
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
        sojourn_chunks: dict[str, list[np.ndarray]] = {
            pool.name: [] for pool in self.pools}
        cluster = Cluster(self.pools, self.profiles)
        if arrivals.size == 0:
            # A zero-request run is a valid degenerate simulation: the
            # report is all zeros and never meets an SLO.
            return self._build_stats(cluster, arrivals, sojourn_chunks,
                                     0, 0, 0, seed)
        self.router.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
            # With an autoscaler, pools start at min_replicas active.
            for pool in self.pools:
                nodes = cluster.pool_slice(pool.name)
                cluster.active[nodes.start + self.autoscaler.min_replicas:
                               nodes.stop] = False

        span_s = float(arrivals[-1])
        edges = np.linspace(0.0, max(span_s, 1e-9), self.epochs + 1)
        boundaries = np.searchsorted(arrivals, edges, side="left")
        boundaries[-1] = arrivals.size
        rejected = 0
        scale_ups = 0
        scale_downs = 0

        for index in range(self.epochs):
            epoch_start_s = float(edges[index])
            epoch_end_s = float(edges[index + 1])
            dt_s = epoch_end_s - epoch_start_s
            if self.autoscaler is not None:
                for pool in self.pools:
                    action = self.autoscaler.scale(pool.name, cluster,
                                                   epoch_start_s)
                    scale_ups += action > 0
                    scale_downs += action < 0
            lo = int(boundaries[index])
            hi = int(boundaries[index + 1])
            if hi > lo:
                rejected += self._route(cluster, arrivals[lo:hi],
                                        epoch_start_s, epoch_end_s)
            # Work continuing from earlier epochs heats this one too.
            carry_s = np.maximum(
                cluster.clock_s.take(cluster.heated_at) - epoch_start_s, 0.0)
            cluster.epoch_busy_s.fill(0.0)
            self._serve(cluster, epoch_end_s, sojourn_chunks)
            if dt_s > 0.0:
                self._step_thermal(cluster, carry_s, dt_s)

        # Drain: every queued request completes past the horizon (the
        # throttle state is frozen; no further thermal transitions).
        self._serve(cluster, math.inf, sojourn_chunks)
        return self._build_stats(cluster, arrivals, sojourn_chunks, rejected,
                                 scale_ups, scale_downs, seed)

    # -- epoch stages --------------------------------------------------------
    def _route(self, cluster: Cluster, epoch_times: np.ndarray,
               epoch_start_s: float, epoch_end_s: float) -> int:
        """Assign one epoch's arrivals; returns the rejected count."""
        count = int(epoch_times.size)
        outstanding = cluster.outstanding(epoch_start_s).astype(np.float64)
        # A shut-down node is never active, so this excludes it too.
        routable = cluster.active & (cluster.available_at_s <= epoch_start_s)
        limits = np.where(routable, self.admission.headroom(outstanding), 0.0)
        spare_s = epoch_end_s - np.maximum(cluster.clock_s[-1], epoch_start_s)
        per_request_s = cluster.full_batch_request_s * cluster.throttle_scale
        capacity = np.minimum(np.maximum(spare_s, 0.0) / per_request_s, count)
        view = RoutingView(outstanding=outstanding, limits=limits,
                           energy_per_request_j=cluster.energy_per_request_j,
                           capacity=capacity)
        quotas = np.minimum(self.router.quotas(view, count),
                            limits).astype(np.int64)
        total = int(quotas.sum())
        assert total <= count, "router over-assigned the epoch"
        if total:
            cluster.assign(quotas, epoch_times[:total])
        return count - total

    def _serve(self, cluster: Cluster, epoch_end_s: float,
               sojourn_chunks: dict[str, list[np.ndarray]]) -> None:
        """Serve every node's FIFO up to ``epoch_end_s``."""
        if cluster.chain_nodes.size:
            self._serve_chains(cluster, epoch_end_s, sojourn_chunks)
        for name, nodes, profile in cluster.batched_pools:
            self._serve_batched(cluster, nodes, profile, epoch_end_s,
                                sojourn_chunks[name])

    def _serve_chains(self, cluster: Cluster, epoch_end_s: float,
                      sojourn_chunks: dict[str, list[np.ndarray]]) -> None:
        """Serve every batch-1 node: one padded Lindley kernel per stage.

        A plain FIFO is a one-stage chain.  A request commits when its
        first-stage service *starts* before the epoch end; the rest of its
        chain then runs to completion at the current throttle state.  The
        rest stay pending, so the next epoch's throttle state can still
        stretch them.  Rows that cannot serve anything (empty queue, busy
        past the epoch end) ride along fully padded and change nothing.
        """
        nodes = cluster.chain_nodes
        head = cluster.head[nodes]
        depth = cluster.tail[nodes] - head
        scale = cluster.throttle_scale[nodes]
        cursor = cluster.row_offset[nodes] + head
        pending = cluster.pending
        at, stage_service_s = cluster.chain_stages[0][1:3]
        service_s = stage_service_s * scale
        free_s = cluster.clock_s.take(at)
        count = depth
        if math.isfinite(epoch_end_s):
            # First-stage starts advance by >= its service each, so the
            # epoch admits at most this many; capping keeps the scan
            # O(servable), not O(backlog).
            start_s = np.maximum(pending.take(cursor), free_s)
            count = np.minimum(
                depth, ((epoch_end_s - start_s) / service_s).astype(np.int64) + 2)
        width = int(count.max())
        if width <= 0:
            return
        columns = np.arange(width)
        arrivals = pending.take(cursor[:, None] + columns)
        arrivals[columns >= count[:, None]] = np.inf
        service = service_s[:, None]
        finish = lindley(arrivals, service * columns, service, free_s[:, None])
        served = (finish - service < epoch_end_s).sum(axis=1)
        cluster.head[nodes] = head + served
        for stage, (rows, at, stage_service_s, ranks) in enumerate(
                cluster.chain_stages):
            # Stage k of every chain that has one consumes stage k-1's
            # finish instants of the committed requests.
            if stage:
                finish_s = finish[rows]
                done = served[rows]
                finish_s[columns >= done[:, None]] = np.inf
                service_s = stage_service_s * scale[rows]
                free_s = cluster.clock_s.take(at)
                service = service_s[:, None]
                finish_s = lindley(finish_s, service * columns, service,
                                   free_s[:, None])
                finish[rows] = finish_s
            else:
                finish_s, done = finish, served
            np.put(cluster.clock_s, at,
                   np.where(done > 0, finish_s[ranks, done - 1], free_s))
            stage_s = done * service_s
            np.put(cluster.stage_busy_s, at,
                   cluster.stage_busy_s.take(at) + stage_s)
            # Each stage is served once per epoch, from a zeroed account.
            np.put(cluster.epoch_busy_s, at, stage_s)
            if stage:
                busy_s[rows] += stage_s
            else:
                busy_s = stage_s
        cluster.busy_s[nodes] += busy_s
        cluster.completed[nodes] += served
        cluster.batches[nodes] += served
        kept = columns < served[:, None]
        sojourn_s = finish[kept] - arrivals[kept]
        first = 0
        for name, last in zip(cluster.chain_pools,
                              np.cumsum(served)[cluster.chain_ends].tolist()):
            if last > first:
                sojourn_chunks[name].append(sojourn_s[first:last])
            first = last

    def _serve_batched(self, cluster: Cluster, nodes: slice,
                       profile: ServiceProfile, epoch_end_s: float,
                       sojourn_chunks: list[np.ndarray]) -> None:
        """Serve one dynamic-batching pool up to ``epoch_end_s``.

        Greedy dynamic batching: whenever a node frees up it grabs
        everything queued (up to the pool's effective batch limit) and
        runs it as one batch.  The loop iterates once per batch
        — plain floats and ``bisect``, no ndarray dispatch — and the
        pool's sojourns are expanded vectorially afterwards.  Deferring
        batches that would start after the epoch end is exact: such a
        batch may only contain arrivals up to its start time, and those
        are all assigned by the time the next epoch forms it.
        """
        heads = cluster.head[nodes].tolist()
        tails = cluster.tail[nodes].tolist()
        offsets = cluster.row_offset[nodes].tolist()
        clocks = cluster.clock_s[-1, nodes].tolist()
        scales = cluster.throttle_scale[nodes].tolist()
        pending_s = cluster.pending.reshape(-1)
        busy = [0.0] * len(heads)
        served = [0] * len(heads)
        batches = [0] * len(heads)
        finishes: list[float] = []
        sizes: list[int] = []
        arrivals: list[np.ndarray] = []
        max_batch = profile.max_batch
        # Past the queue's end the window holds inf, which never joins a
        # batch and stops the loop.
        sentinel = [math.inf] * max_batch
        finite = math.isfinite(epoch_end_s)
        right = bisect.bisect_right
        add_finish, add_size = finishes.append, sizes.append
        scale = None
        for position, head in enumerate(heads):
            total = tails[position] - head
            if not total:
                continue
            cursor = offsets[position] + head
            now_s = clocks[position]
            start_s = float(pending_s[cursor])
            if start_s < now_s:
                start_s = now_s
            if start_s >= epoch_end_s:
                continue
            if scales[position] != scale:
                scale = scales[position]
                wall_s = [0.0] + [wall * scale for wall in profile.batch_wall_s]
                shortest_s = min(wall_s[1:])
            if finite:
                # Batches start at least the shortest wall time apart.
                total = min(total, max_batch * (
                    int((epoch_end_s - start_s) / shortest_s) + 3))
            pending = pending_s[cursor:cursor + total].tolist() + sentinel
            busy_s = 0.0
            idx = 0
            count = len(sizes)
            while True:
                first = pending[idx]
                start_s = first if first > now_s else now_s
                if start_s >= epoch_end_s:
                    break
                size = right(pending, start_s, idx, idx + max_batch) - idx
                duration_s = wall_s[size]
                now_s = start_s + duration_s
                add_finish(now_s)
                add_size(size)
                busy_s += duration_s
                idx += size
            arrivals.append(pending_s[cursor:cursor + idx])
            heads[position] = head + idx
            clocks[position] = now_s
            busy[position] = busy_s
            served[position] = idx
            batches[position] = len(sizes) - count
        if not sizes:
            return
        finish_s = np.fromiter(finishes, np.float64, len(finishes))
        sojourn_chunks.append(finish_s.repeat(np.array(sizes, dtype=np.intp))
                              - np.concatenate(arrivals))
        cluster.head[nodes] = heads
        cluster.clock_s[-1, nodes] = clocks
        busy_s = np.array(busy)
        cluster.busy_s[nodes] += busy_s
        cluster.stage_busy_s[-1, nodes] += busy_s
        cluster.epoch_busy_s[-1, nodes] = busy_s
        cluster.completed[nodes] += served
        cluster.batches[nodes] += batches

    def _step_thermal(self, cluster: Cluster, carry_s: np.ndarray,
                      dt_s: float) -> None:
        """Integrate one epoch of heat; apply throttle/shutdown effects.

        The epoch's average draw interpolates idle and under-load power by
        the busy fraction (``carry_s`` covers work continuing from earlier
        epochs; batches running past the epoch end are clipped and show up
        again in the next epoch's carry).
        """
        busy_s = cluster.epoch_busy_s.take(cluster.heated_at)
        busy_frac = np.minimum((carry_s + busy_s) / dt_s, 1.0)
        thermal = cluster.thermal
        tripped = thermal.step(cluster.idle_w + busy_frac * cluster.swing_w,
                               dt_s)
        if tripped is not None:
            cluster.active[tripped] = False
            cluster.drain(tripped)
        if thermal.has_throttles:
            # A node keeps the scale it had when it shut down.
            np.copyto(cluster.throttle_scale, thermal.slowdown,
                      where=~thermal.shutdown)

    # -- reporting -----------------------------------------------------------
    def _build_stats(self, cluster: Cluster, arrivals: np.ndarray,
                     sojourn_chunks: dict[str, list[np.ndarray]],
                     rejected: int, scale_ups: int, scale_downs: int,
                     seed: int) -> FleetStats:
        horizon_s = max(float(arrivals[-1]) if arrivals.size else 0.0,
                        float(cluster.clock_s[-1].max()))
        thermal = cluster.thermal
        pool_stats: list[PoolStats] = []
        fleet_sojourns: list[np.ndarray] = []
        fleet_energy_j = 0.0
        for pool in self.pools:
            nodes = cluster.pool_slice(pool.name)
            profile = self.profiles[pool.name]
            sojourn_s = (np.concatenate(sojourn_chunks[pool.name])
                         if sojourn_chunks[pool.name] else _EMPTY)
            fleet_sojourns.append(sojourn_s)
            completed = int(cluster.completed[nodes].sum())
            batches = int(cluster.batches[nodes].sum())
            # Report totals add left to right in node order, as they did
            # when every node was an object.
            busy_s = serial_sum_array(cluster.busy_s[nodes])
            if profile.stages is not None:
                # One energy integral per stage device: each stage idles
                # whenever it is not computing or sending.
                energy_j = serial_sum(
                    busy * stage.power_w + (horizon_s - busy) * stage.idle_w
                    for node_busy in cluster.stage_busy_s_of(pool.name)
                    for busy, stage in zip(node_busy, profile.stages))
                device_seconds = (pool.replicas * len(profile.stages)
                                  * horizon_s)
            else:
                energy_j = serial_sum(
                    busy * profile.power_w + (horizon_s - busy) * profile.idle_w
                    for busy in cluster.busy_s[nodes].tolist())
                device_seconds = pool.replicas * horizon_s
            fleet_energy_j += energy_j
            pool_stats.append(PoolStats(
                name=pool.name,
                scenario=pool.scenario.to_dict(),
                replicas=pool.replicas,
                effective_max_batch=profile.max_batch,
                assigned=int(cluster.assigned[nodes].sum()),
                completed=completed,
                dropped=int(cluster.dropped[nodes].sum()),
                batches=batches,
                mean_batch_size=completed / batches if batches else 0.0,
                max_queue_depth=int(cluster.max_depth[nodes].max()),
                utilization=(busy_s / device_seconds
                             if device_seconds > 0 else 0.0),
                throughput_rps=(completed / horizon_s
                                if horizon_s > 0 else 0.0),
                sojourn=SojournSummary.from_times(sojourn_s),
                energy_j=energy_j,
                energy_per_request_j=energy_j / completed if completed else 0.0,
                throttle_events=int(thermal.throttle_events[nodes].sum()),
                fan_events=int(thermal.fan_events[nodes].sum()),
                shutdown_events=int(cluster.shutdown[nodes].sum()),
                final_active_replicas=int(
                    (cluster.active[nodes] & ~cluster.shutdown[nodes]).sum()),
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
