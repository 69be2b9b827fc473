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

During the simulation each replica is a :class:`NodeState`: a FIFO of
assigned arrival instants, a Lindley clock (``free_at_s``), a thermal
integrator, and the counters the report aggregates.  Pipelined replicas
additionally carry one Lindley clock and busy counter per stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.core.errors import ReproError
from repro.hardware import load_device
from repro.hardware.thermal import ThermalSimulator, ThermalSpec
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
            ``batch - 1`` (``batched_latency_fn`` semantics: per-inference
            latency times the batch size).  For pipelined pools this is
            the one-entry end-to-end latency of a lone request.
        max_batch: effective batching limit — the requested limit, capped
            below the first batch size whose deployment failed.
        power_w: device draw while inferencing (from the run record; for
            pipelined pools, the whole chain flat out).
        idle_w: device draw while idle (from ``hardware.power``; summed
            over the chain for pipelined pools).
        init_time_s: one-time session setup cost (autoscale wake latency).
        thermal: the lumped-RC thermal spec of the device (single) or of
            the bottleneck stage's device (pipelined).
        cell_seed: the pool scenario's canonical measurement seed.
        stages: per-stage profiles for pipelined pools, None otherwise —
            the discriminator the simulator dispatches on.
    """

    batch_wall_s: tuple[float, ...]
    max_batch: int
    power_w: float
    idle_w: float
    init_time_s: float
    thermal: ThermalSpec
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
            return sum(stage.power_w * stage.compute_s
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
        power_w=sum(stage.power_w for stage in profile_stages),
        idle_w=sum(stage.idle_w for stage in profile_stages),
        init_time_s=max(stage.init_time_s for stage in deployment.stages),
        thermal=bottleneck_device.thermal,
        cell_seed=pool.scenario.seed,
        stages=profile_stages,
    )


@dataclass
class NodeState:
    """One replica's mutable serving state.

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
        if self.thermal_sim is None:
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


class Cluster:
    """The fleet: every pool's nodes plus the index arrays routers use."""

    def __init__(self, pools: Sequence[PoolSpec],
                 profiles: dict[str, ServiceProfile]):
        self.pools = list(pools)
        self.profiles = profiles
        self.nodes: list[NodeState] = []
        for pool in self.pools:
            profile = profiles[pool.name]
            for index in range(pool.replicas):
                self.nodes.append(NodeState(pool=pool.name, index=index,
                                            profile=profile))

    def pool_nodes(self, name: str) -> list[NodeState]:
        return [node for node in self.nodes if node.pool == name]

    def __len__(self) -> int:
        return len(self.nodes)
