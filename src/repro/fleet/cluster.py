"""Device pools: the fleet's capacity, priced by the engine.

A :class:`PoolSpec` is *n* identical replicas of one deployment — either
one :class:`~repro.runtime.scenario.Scenario` (model, device, framework,
dtype) plus a dynamic-batching limit, or a multi-stage
:class:`~repro.placement.deployment.Deployment` whose replicas are whole
device *chains*.  Before a simulation starts, every scenario pool's
per-batch service times are resolved in a single ``Runner.run_grid`` call
(:func:`resolve_profiles`): the whole fleet's pricing is one compiled
sweep, cached in the engine's record cache, and bit-identical to
measuring each cell alone.  A batch size that fails to deploy (out of
memory, Table V style) caps the pool's effective batch limit instead of
crashing the fleet.  Deployment pools arrive already priced — the
lowering rules attach per-stage compute/transfer/power — so their
profiles are derived without touching the engine.

During the simulation every replica's state lives in the arrays of one
:class:`Cluster`: a FIFO of assigned arrival instants, Lindley clocks and
busy seconds per stage, thermal state, and the counters the report
aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.errors import ReproError
from repro.core.summation import serial_sum
from repro.fleet.router import interleave
from repro.hardware import load_device
from repro.hardware.thermal import ThermalArray, ThermalSpec
from repro.placement.deployment import Deployment
from repro.runtime.record import RunRecord
from repro.runtime.runner import Runner, default_runner
from repro.runtime.scenario import Scenario


@dataclass(frozen=True)
class PoolSpec:
    """A homogeneous pool of replicas serving one deployment.

    Attributes:
        name: pool label in reports (defaults to the device name).
        scenario: the deployment every replica runs; must have
            ``batch_size == 1`` — the pool sweeps batch sizes itself.
            For multi-stage pools this is the first stage's scenario.
        replicas: number of identical nodes (device chains, if pipelined).
        max_batch: dynamic-batching limit per node (1 = the paper's
            single-batch edge regime; multi-stage pools are batch-1).
        deployment: the multi-stage deployment this pool serves, or None
            for the classic single-scenario pool.  Build through
            :meth:`from_deployment`, which normalizes single-node
            deployments onto the plain scenario path.
    """

    name: str
    scenario: Scenario
    replicas: int
    max_batch: int = 1
    deployment: Deployment | None = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.scenario.batch_size != 1:
            raise ValueError(
                "pool scenarios are batch-1; the pool sweeps batch sizes "
                f"up to max_batch (got batch_size={self.scenario.batch_size})")
        if self.deployment is not None:
            if self.deployment.is_single_node:
                raise ValueError(
                    "single-node deployments take the plain scenario path; "
                    "build the pool with PoolSpec.from_deployment")
            if self.max_batch != 1:
                raise ValueError(
                    "pipelined pools serve batch-1 (stages stream single "
                    f"inferences), got max_batch={self.max_batch}")
            if self.scenario != self.deployment.stages[0].scenario:
                raise ValueError(
                    "a deployment pool's scenario must be its first stage's")

    @classmethod
    def from_deployment(cls, name: str, deployment: Deployment,
                        replicas: int, max_batch: int = 1) -> "PoolSpec":
        """The pool serving ``deployment`` on ``replicas`` chains.

        Single-node deployments come back as a PLAIN scenario pool — the
        deployment wrapper is dropped, so pricing and serving go through
        the exact legacy path, bit-identical by construction.
        """
        if deployment.is_single_node:
            return cls(name=name, scenario=deployment.stages[0].scenario,
                       replicas=replicas, max_batch=max_batch)
        return cls(name=name, scenario=deployment.stages[0].scenario,
                   replicas=replicas, max_batch=max_batch,
                   deployment=deployment)

    def scenario_grid(self) -> list[Scenario]:
        """One scenario per candidate batch size, for ``Runner.run_grid``.

        Deployment pools contribute nothing: the lowering rule already
        priced every stage, so there is nothing left to sweep.
        """
        if self.deployment is not None:
            return []
        return [replace(self.scenario, batch_size=batch)
                for batch in range(1, self.max_batch + 1)]

    def describe(self) -> str:
        if self.deployment is not None:
            chain = " + ".join(self.deployment.devices)
            return (f"{self.replicas}x [{self.deployment.kind} {chain} "
                    f"over {self.deployment.link}]")
        return (f"{self.replicas}x {self.scenario.device} via "
                f"{self.scenario.framework} (max_batch {self.max_batch})")


@dataclass(frozen=True)
class StageProfile:
    """One pipeline stage's serving characteristics inside a profile.

    Attributes:
        device: the stage's device name (reports and energy accounting).
        service_s: stage occupancy per inference — compute plus outgoing
            transfer (the stage clock advances by this much per request).
        compute_s: the compute part alone (active-energy accounting).
        power_w: stage device draw while computing.
        idle_w: stage device draw while idle.
    """

    device: str
    service_s: float
    compute_s: float
    power_w: float
    idle_w: float


@dataclass(frozen=True)
class ServiceProfile:
    """A pool's engine-priced serving characteristics, resolved once.

    Attributes:
        batch_wall_s: seconds to finish a whole batch, indexed by
            ``batch - 1``: the per-inference latency times the batch size.
            For pipelined pools this is the one-entry end-to-end latency
            of a lone request.
        max_batch: effective batching limit — the requested limit, capped
            below the first batch size whose deployment failed.
        power_w: device draw while inferencing (from the run record; for
            pipelined pools, the whole chain flat out).
        idle_w: device draw while idle (from ``hardware.power``; summed
            over the chain for pipelined pools).
        init_time_s: one-time session setup cost (autoscale wake latency).
        thermal: the lumped-RC thermal spec of the device (single) or of
            the bottleneck stage's device (pipelined); None for a device
            without one, whose nodes never heat.
        cell_seed: the pool scenario's canonical measurement seed.
        stages: per-stage profiles for pipelined pools, None otherwise —
            the discriminator the simulator dispatches on.
    """

    batch_wall_s: tuple[float, ...]
    max_batch: int
    power_w: float
    idle_w: float
    init_time_s: float
    thermal: ThermalSpec | None
    cell_seed: int
    stages: tuple[StageProfile, ...] | None = None

    @property
    def service_s(self) -> float:
        """Batch-1 service time (one request through every stage)."""
        return self.batch_wall_s[0]

    @property
    def full_batch_request_s(self) -> float:
        """Per-request service time at peak throughput.

        Pipelined pools stream: the steady-state rate is set by the
        bottleneck stage, not the end-to-end latency.
        """
        if self.stages is not None:
            return self.stages[self.bottleneck_index].service_s
        return self.batch_wall_s[self.max_batch - 1] / self.max_batch

    @property
    def energy_per_request_j(self) -> float:
        """Active energy of one unbatched inference (routing heuristic)."""
        if self.stages is not None:
            return serial_sum(stage.power_w * stage.compute_s
                              for stage in self.stages)
        return self.power_w * self.service_s

    @property
    def bottleneck_index(self) -> int:
        """Index of the slowest stage (first on ties); pipelined only."""
        assert self.stages is not None
        best = 0
        for index, stage in enumerate(self.stages):
            if stage.service_s > self.stages[best].service_s:
                best = index
        return best

    def batch_time_s(self, batch: int) -> float:
        return self.batch_wall_s[batch - 1]


def resolve_profiles(pools: Sequence[PoolSpec],
                     runner: Runner | None = None,
                     use_timer: bool = False) -> dict[str, ServiceProfile]:
    """Price every pool in one compiled, cached sweep.

    All pools' batch-size grids are concatenated into a single
    ``Runner.run_grid`` call, so deployments and plans are deduplicated
    across pools and every service time comes from (and lands in) the
    engine's record cache.  A failure at batch 1 means the pool cannot
    serve at all and re-raises the structured error; a failure at a larger
    batch (e.g. activation memory overflow) caps ``max_batch`` there.
    """
    runner = runner or default_runner()
    pools = list(pools)
    _check_unique_names(pools)
    grid = [scenario for pool in pools for scenario in pool.scenario_grid()]
    # run_grid's wall-clock calls stamp compile-stage *stats* only; the
    # records it returns are seeded and bit-identical run to run.
    records = runner.run_grid(grid, use_timer=use_timer)  # repro: allow[RACE004] perf_counter stamps stats, results deterministic
    profiles: dict[str, ServiceProfile] = {}
    cursor = 0
    for pool in pools:
        if pool.deployment is not None:
            # Deployment pools were priced by their lowering rule; the
            # grid contains no cells for them.
            profiles[pool.name] = _profile_from_deployment(pool)
            continue
        pool_records = records[cursor:cursor + pool.max_batch]
        cursor += pool.max_batch
        profiles[pool.name] = _profile_from_records(pool, pool_records)
    return profiles


def _check_unique_names(pools: Sequence[PoolSpec]) -> None:
    seen: set[str] = set()
    for pool in pools:
        if pool.name in seen:
            raise ValueError(f"duplicate pool name {pool.name!r}")
        seen.add(pool.name)


def _profile_from_records(pool: PoolSpec,
                          records: Sequence[RunRecord]) -> ServiceProfile:
    base = records[0]
    if base.failed:
        assert base.failure is not None
        raise ReproError(
            f"pool {pool.name!r} cannot deploy {pool.scenario.describe()}: "
            f"[{base.failure.kind}] {base.failure.message}")
    batch_wall_s: list[float] = []
    for batch, record in enumerate(records, start=1):
        if record.failed:
            break  # e.g. OOM at this batch size: cap the pool below it
        assert record.latency_s is not None
        batch_wall_s.append(record.latency_s * batch)
    device = load_device(pool.scenario.device)
    assert base.power_w is not None and base.init_time_s is not None
    return ServiceProfile(
        batch_wall_s=tuple(batch_wall_s),
        max_batch=len(batch_wall_s),
        power_w=float(base.power_w),
        idle_w=float(device.power.idle_w),
        init_time_s=base.init_time_s,
        thermal=device.thermal,
        cell_seed=pool.scenario.seed,
    )


def _profile_from_deployment(pool: PoolSpec) -> ServiceProfile:
    """Derive a pipelined profile from an already-priced deployment.

    Pure: the lowering rule attached per-stage compute, transfer, power
    and init costs, so no engine call happens here.  A stage with zero
    occupancy would stall the per-stage Lindley clocks, so it is a
    structured error.
    """
    deployment = pool.deployment
    assert deployment is not None
    stages = []
    for position, stage in enumerate(deployment.stages):
        if not stage.service_s > 0:
            raise ReproError(
                f"pool {pool.name!r} stage {position} has zero service "
                f"time ({stage.scenario.describe()}): unpriced deployment?")
        stages.append(StageProfile(
            device=stage.scenario.device,
            service_s=stage.service_s,
            compute_s=stage.compute_s,
            power_w=float(stage.power_w),
            idle_w=float(stage.idle_w),
        ))
    profile_stages = tuple(stages)
    bottleneck = max(range(len(profile_stages)),
                     key=lambda i: profile_stages[i].service_s)
    bottleneck_device = load_device(profile_stages[bottleneck].device)
    return ServiceProfile(
        batch_wall_s=(deployment.latency_s,),
        max_batch=1,
        power_w=serial_sum(stage.power_w for stage in profile_stages),
        idle_w=serial_sum(stage.idle_w for stage in profile_stages),
        init_time_s=max(stage.init_time_s for stage in deployment.stages),
        thermal=bottleneck_device.thermal,
        cell_seed=pool.scenario.seed,
        stages=profile_stages,
    )


class Cluster:
    """Every replica's serving state and constants, one array entry per node.

    Nodes are numbered pool by pool, so each pool owns the contiguous
    slice :meth:`pool_slice` of every array.  A node's pending FIFO is a
    row of ``pending``: the assigned-but-unserved arrival instants sit in
    columns ``head:tail``, at flat positions ``row_offset + head`` and on.
    One spare row at the end keeps a gather of up to ``width`` columns
    past any head inside the buffer.  Lindley clocks and busy seconds are kept per
    stage in ``(stages, nodes)`` arrays aligned at the end: row ``-1`` is
    every node's last stage (its only one unless it serves a pipeline), so
    ``clock_s[-1]`` is when each node finishes everything it has started.
    Other stages are reached through flat ``stage * nodes + node`` indices
    for ``take`` and ``np.put``:

    * ``heated_at`` is the stage whose device the node's thermal model
      stands for (a pipeline's bottleneck stage); ``idle_w`` and
      ``swing_w`` are that stage's idle draw and its rise under load;
    * ``chain_nodes`` are the batch-1 nodes, served by one Lindley kernel
      (a FIFO is a one-stage chain), and ``chain_stages[k]`` holds, for
      the kernel rows whose chain has a stage ``k``: those rows, the flat
      index of that stage, its service time, and ``0..len(rows)-1``;
      ``chain_ends`` is each batch-1 pool's last kernel row;
    * ``batched_pools`` lists ``(name, nodes, profile)`` of the
      dynamic-batching pools, which serve from row ``-1`` alone.
    """

    def __init__(self, pools: Sequence[PoolSpec],
                 profiles: dict[str, ServiceProfile]):
        self.pools = list(pools)
        self.profiles = profiles
        pool_profiles = [profiles[pool.name] for pool in self.pools]
        replicas = [pool.replicas for pool in self.pools]
        count = sum(replicas)
        self._slices: dict[str, slice] = {}
        start = 0
        for pool in self.pools:
            self._slices[pool.name] = slice(start, start + pool.replicas)
            start += pool.replicas
        services = [[stage.service_s for stage in profile.stages]
                    if profile.stages else [profile.service_s]
                    for profile in pool_profiles]
        depth = max(len(stages) for stages in services)
        self.clock_s = np.zeros((depth, count))
        self.stage_busy_s = np.zeros((depth, count))
        self.epoch_busy_s = np.zeros((depth, count))
        self.busy_s = np.zeros(count)
        self.completed = np.zeros(count, dtype=np.int64)
        self.batches = np.zeros(count, dtype=np.int64)
        self.active = np.ones(count, dtype=bool)
        self.available_at_s = np.zeros(count)
        self.throttle_scale = np.ones(count)
        self.pending = np.zeros((count + 1, 1024))
        self.row_offset = np.arange(count) * 1024
        self.head = np.zeros(count, dtype=np.int64)
        self.tail = np.zeros(count, dtype=np.int64)
        self.max_depth = np.zeros(count, dtype=np.int64)
        self.assigned = np.zeros(count, dtype=np.int64)
        self.dropped = np.zeros(count, dtype=np.int64)
        self.thermal = ThermalArray([profile.thermal for profile, nodes
                                     in zip(pool_profiles, replicas)
                                     for _ in range(nodes)])
        self.energy_per_request_j = np.repeat(
            [profile.energy_per_request_j for profile in pool_profiles],
            replicas)
        self.full_batch_request_s = np.repeat(
            [profile.full_batch_request_s for profile in pool_profiles],
            replicas)
        # The profile's thermal spec belongs to a pipeline's bottleneck
        # stage's device, so that stage's duty cycle and draw heat it.
        heated = [(depth - len(stages) + profile.bottleneck_index,
                   profile.stages[profile.bottleneck_index])
                  if profile.stages else (depth - 1, profile)
                  for stages, profile in zip(services, pool_profiles)]
        self.heated_at = (np.repeat([row for row, _ in heated], replicas)
                          * count + np.arange(count))
        self.idle_w = np.repeat([draw.idle_w for _, draw in heated], replicas)
        self.swing_w = np.repeat([draw.power_w - draw.idle_w
                                  for _, draw in heated], replicas)
        self.batched_pools: list[tuple[str, slice, ServiceProfile]] = []
        self.chain_pools: list[str] = []
        chain_nodes: list[int] = []
        chain_services: list[list[float]] = []
        ends: list[int] = []
        for pool, profile, stages in zip(self.pools, pool_profiles, services):
            nodes = self._slices[pool.name]
            if profile.stages is None and profile.max_batch > 1:
                self.batched_pools.append((pool.name, nodes, profile))
                continue
            chain_nodes += range(nodes.start, nodes.stop)
            chain_services += [stages] * pool.replicas
            ends.append(len(chain_nodes) - 1)
            self.chain_pools.append(pool.name)
        self.chain_nodes = np.array(chain_nodes, dtype=np.int64)
        self.chain_ends = np.array(ends, dtype=np.int64)
        self.chain_stages = []
        for position in range(depth):
            members = [row for row, stages in enumerate(chain_services)
                       if position < len(stages)]
            if not members:
                break
            self.chain_stages.append((
                np.array(members),
                np.array([(depth - len(chain_services[row]) + position) * count
                          + chain_nodes[row] for row in members]),
                np.array([chain_services[row][position] for row in members]),
                np.arange(len(members))))

    def __len__(self) -> int:
        return self.head.size

    def pool_slice(self, name: str) -> slice:
        return self._slices[name]

    def stage_busy_s_of(self, name: str) -> list[list[float]]:
        """Busy seconds of each node of pipelined pool ``name``, one list
        per node, first stage first."""
        stages = len(self.profiles[name].stages)
        return self.stage_busy_s[-stages:, self._slices[name]].T.tolist()

    @property
    def shutdown(self) -> np.ndarray:
        """Nodes that tripped their thermal shutdown (never serve again)."""
        return self.thermal.shutdown

    @property
    def depth(self) -> np.ndarray:
        """Requests assigned and not yet completed, per node."""
        return self.tail - self.head

    def outstanding(self, now_s: float) -> np.ndarray:
        """Queue depth plus the request or batch still in service at ``now_s``."""
        return self.depth + (self.clock_s[-1] > now_s)

    def assign(self, quotas: np.ndarray, arrival_times: np.ndarray) -> None:
        """Append ``quotas[i]`` of the sorted ``arrival_times`` to node
        ``i``'s FIFO, spread over the stream by :func:`interleave`."""
        nodes, ranks = interleave(quotas)
        tail = self.tail + quotas
        if tail.max() > self.pending.shape[1]:
            self.compact(int((tail - self.head).max()))
        np.put(self.pending, (self.row_offset + self.tail)[nodes] + ranks,
               arrival_times)
        self.tail += quotas
        self.assigned += quotas
        np.maximum(self.max_depth, self.tail - self.head, out=self.max_depth)

    def compact(self, room: int = 0) -> None:
        """Move every FIFO to column 0, growing the buffer to fit ``room``
        requests per node."""
        depth = self.depth
        width = self.pending.shape[1]
        if room > width:
            width = max(2 * width, room)
        live = int(depth.max())
        pending = np.zeros((len(self) + 1, width))
        if live:
            pending[:-1, :live] = self.pending.take(
                (self.row_offset + self.head)[:, None] + np.arange(live))
        self.row_offset = np.arange(len(self)) * width
        self.pending = pending
        self.head[:] = 0
        self.tail[:] = depth

    def drain(self, nodes: np.ndarray) -> None:
        """Discard the queues of ``nodes`` (thermal shutdown), counting
        the requests lost in ``dropped``."""
        self.dropped[nodes] += self.depth[nodes]
        self.head[nodes] = self.tail[nodes]
