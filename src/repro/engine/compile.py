"""Batched sweep compiler: the one execution path from scenarios to plans.

Every measurement — a single :meth:`Runner.run` cell or a whole figure's
grid — takes the same route through this module.  It compiles a list of
:class:`repro.runtime.Scenario` cells in three phases:

* **gather** — walk the cells in order, deduplicating deployments (by
  deploy key and power mode) and plan specs (by deployment and batch
  size), recording each cell's deploy-cache outcome (``"miss"`` for the
  first cell to need a deployment, ``"hit"`` after it, ``"bypass"`` when
  the deployment cannot be cached) and re-using plan-cache entries where
  they already exist;
* **lower** — hand every unresolved spec to
  :func:`repro.engine.executor.lower_plan_specs`, which prices the entire
  grid through ONE roofline array program and splits the result back into
  per-spec :class:`ExecutionPlan`s (written through to the plan cache when
  caching is enabled);
* **scatter** — derive the per-cell quantities a
  :class:`repro.runtime.RunRecord` carries (plan latency, utilization,
  power draw, init time, weight bytes) once per unique plan and fan them
  back out to every cell that shares it.

The roofline program is elementwise, so a cell's record never depends on
which other cells share its grid; the composition suite checks that at
zero tolerance.

Purity contract (enforced as ARCH005): this module never constructs
sessions or timers, never draws random numbers — even seeded — and never
reads the wall clock.  Measurement noise is applied by the runtime layer
on top of the compiled latencies; the wall-clock fields of
:class:`CompileStats` are stamped by the (impure) driver after the fact.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

import repro.engine.cache as engine_cache
from repro.core.errors import ReproError
from repro.engine.executor import (
    EngineConfig,
    ExecutionPlan,
    PlanSpec,
    check_batch_memory,
    deployed_init_time_s,
    lower_plan_specs,
    plan_utilization,
    resolve_plan_spec,
)
from repro.runtime.scenario import Scenario


@dataclass
class CompileStats:
    """Counters for one compiled grid (or the process-wide accumulation).

    ``macs_lowered`` / ``bytes_lowered`` are the global FLOP and traffic
    counters over everything the array program priced: MACs and (weight +
    activation) bytes summed across every op of every plan built.  The
    ``*_s`` wall-clock fields are stamped by the runtime driver — the
    compiler itself never reads a clock.
    """

    cells: int = 0
    unique_deploys: int = 0
    deploy_failures: int = 0
    unique_plans: int = 0
    plan_cache_hits: int = 0
    array_programs: int = 0
    ops_lowered: int = 0
    macs_lowered: float = 0.0
    bytes_lowered: float = 0.0
    gather_s: float = 0.0
    lower_s: float = 0.0
    scatter_s: float = 0.0
    timer_s: float = 0.0

    @property
    def dedup_ratio(self) -> float:
        """Cells priced per plan actually built (1.0 = nothing shared).

        A fully warm grid builds no plans at all; it counts as maximally
        shared rather than dividing by zero.
        """
        if self.unique_plans:
            return self.cells / self.unique_plans
        return float(self.cells) if self.cells else 1.0

    def as_dict(self) -> dict[str, Any]:
        return {**asdict(self), "dedup_ratio": self.dedup_ratio}


@dataclass
class CompiledCell:
    """The pure (noise-free) outcome of one grid cell.

    Exactly one of two shapes: ``error`` set and every other field None
    (a Table V-style failure), or ``error`` None and every quantity the
    runtime layer needs to assemble a ``RunRecord`` populated.  Latency
    here is the bare-metal plan latency; container taxes and timing-loop
    noise are applied by the runtime layer.
    """

    scenario: Scenario
    cache_outcome: str
    error: ReproError | None = None
    plan: ExecutionPlan | None = None
    latency_s: float | None = None
    init_time_s: float | None = None
    utilization: float | None = None
    power_w: float | None = None
    weight_bytes: int | None = None
    deployed: Any = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class _PlanEntry:
    """One unique (deployment, batch size) the grid prices."""

    deployed: Any = None
    error: ReproError | None = None
    spec: PlanSpec | None = None
    plan: ExecutionPlan | None = None
    plan_key: tuple | None = None
    # scatter memos (shared by every cell referencing this entry):
    latency_s: float | None = None
    init_time_s: float | None = None
    utilization: float | None = None
    power_w: float | None = None
    weight_bytes: int | None = None


@dataclass
class GridProgram:
    """The compiled form of one scenario grid between the phases."""

    cells: list[tuple[Scenario, str, Any]] = field(default_factory=list)
    plans: dict[Any, _PlanEntry] = field(default_factory=dict)
    stats: CompileStats = field(default_factory=CompileStats)


def deploy_outcome(scenario: Scenario, graph: Any = None) -> str:
    """The deploy-cache outcome :func:`deploy` is about to produce.

    ``"hit"``/``"miss"`` through the memo layer, or ``"bypass"`` when the
    deployment cannot be cached: an explicit (e.g. pruned) ``graph``, a
    non-default power mode, or caching disabled.
    """
    if (graph is not None or not scenario.is_default_runtime
            or not engine_cache.caching_enabled()):
        return "bypass"
    return "hit" if engine_cache.DEPLOY_CACHE.contains(scenario.deploy_key) else "miss"


def deploy(scenario: Scenario, graph: Any = None):
    """Deploy one cell: the deploy rule every measurement uses.

    Stock-power-mode cells of zoo models go through the memo cache;
    an explicit ``graph`` or a non-default power mode deploys directly
    (the latter on the device rebuilt at that operating point).
    """
    if graph is None and scenario.is_default_runtime:
        return engine_cache.cached_deploy(
            scenario.model, scenario.device, scenario.framework,
            dtype=scenario.dtype)
    from repro.hardware import apply_operating_point, load_device
    from repro.frameworks import load_framework
    from repro.models import load_model

    device = load_device(scenario.device)
    if not scenario.is_default_runtime:
        device = apply_operating_point(device, scenario.power_mode)
    if graph is None:
        graph = load_model(scenario.model)
    return load_framework(scenario.framework).deploy(
        graph, device, dtype=scenario.dtype)


def gather(scenarios: Sequence[Scenario], graph: Any = None) -> GridProgram:
    """Phase 1: dedup deployments and plan specs across the grid.

    Cells are visited in input order: the first cell to need a deployment
    records a ``"miss"`` (or ``"hit"`` when an earlier grid already cached
    it), every later cell sharing it a ``"hit"``, and uncacheable cells
    ``"bypass"`` (see :func:`deploy_outcome`).  An explicit ``graph``
    replaces the zoo model for every cell of the grid.
    """
    from repro.engine.calibration import efficiency_scale as resolve_scale

    program = GridProgram()
    stats = program.stats
    stats.cells = len(scenarios)
    deploys: dict[Any, _PlanEntry] = {}

    for scenario in scenarios:
        dkey = (scenario.deploy_key, scenario.power_mode.lower())
        outcome = deploy_outcome(scenario, graph)
        if dkey not in deploys:
            stats.unique_deploys += 1
            entry = _PlanEntry()
            try:
                entry.deployed = deploy(scenario, graph)
            except ReproError as error:
                entry.error = error
                stats.deploy_failures += 1
            deploys[dkey] = entry
        base = deploys[dkey]

        skey = (dkey, scenario.batch_size)
        if skey not in program.plans:
            program.plans[skey] = _resolve_entry(base, scenario.batch_size,
                                                 resolve_scale, stats)
        program.cells.append((scenario, outcome, skey))
    return program


def _resolve_entry(base: _PlanEntry, batch_size: int, resolve_scale,
                   stats: CompileStats) -> _PlanEntry:
    """Resolve one unique (deployment, batch) into a plan or a spec.

    Mirrors ``InferenceSession.__init__`` step for step: calibration
    resolution, then the batch memory check, then the plan-cache lookup,
    and only then spec resolution for plans the lowering phase must build.
    """
    if base.error is not None:
        return base if batch_size == 1 else _PlanEntry(error=base.error)
    deployed = base.deployed
    entry = _PlanEntry(deployed=deployed)
    config = EngineConfig(batch_size=batch_size)
    scale = resolve_scale(deployed.framework.name, deployed.device.name)
    try:
        check_batch_memory(deployed, batch_size)
    except ReproError as error:
        entry.deployed = None
        entry.error = error
        return entry
    pkey = engine_cache.plan_key(deployed, config, scale)
    if pkey is not None:
        found, plan = engine_cache.PLAN_CACHE.cached_value(pkey)
        if found:
            entry.plan = plan
            stats.plan_cache_hits += 1
            return entry
        entry.plan_key = pkey
    entry.spec = resolve_plan_spec(deployed, config, scale)
    stats.unique_plans += 1
    return entry


def lower(program: GridProgram) -> None:
    """Phase 2: price every unresolved spec through one array program.

    Hands every pending spec to :func:`lower_plan_specs` at once, so the
    whole grid is priced by a single :func:`lower_rooflines_s` call.  Plans
    with a cacheable key are written through to the shared plan cache.
    """
    pending = [entry for entry in program.plans.values()
               if entry.spec is not None]
    if not pending:
        return
    lowered = lower_plan_specs([entry.spec for entry in pending])
    stats = program.stats
    stats.array_programs += 1
    stats.ops_lowered += lowered.ops
    stats.macs_lowered += lowered.macs
    stats.bytes_lowered += lowered.traffic_bytes
    for entry, plan in zip(pending, lowered.plans):
        if entry.plan_key is not None:
            plan = engine_cache.PLAN_CACHE.store(entry.plan_key, plan)
        entry.plan = plan
        entry.spec = None


def scatter(program: GridProgram) -> list[CompiledCell]:
    """Phase 3: fan per-plan quantities back out to every cell."""
    cells: list[CompiledCell] = []
    for scenario, outcome, skey in program.cells:
        entry = program.plans[skey]
        if entry.error is not None:
            cells.append(CompiledCell(scenario=scenario, cache_outcome="none",
                                      error=entry.error))
            continue
        if entry.latency_s is None:
            plan = entry.plan
            deployed = entry.deployed
            entry.latency_s = plan.latency_s
            entry.utilization = plan_utilization(plan)
            entry.power_w = deployed.device.power.power(entry.utilization)
            entry.init_time_s = deployed_init_time_s(deployed)
            entry.weight_bytes = deployed.weight_bytes()
        cells.append(CompiledCell(
            scenario=scenario,
            cache_outcome=outcome,
            plan=entry.plan,
            latency_s=entry.latency_s,
            init_time_s=entry.init_time_s,
            utilization=entry.utilization,
            power_w=entry.power_w,
            weight_bytes=entry.weight_bytes,
            deployed=entry.deployed,
        ))
    return cells


# -- process-wide stats plumbing (engine.cache style) ----------------------
_LOCK = threading.Lock()
_TOTALS = CompileStats()
_GRIDS = 0


def record_compile(stats: CompileStats) -> None:
    """Fold one grid's counters into the process-wide accumulator."""
    global _GRIDS
    with _LOCK:
        _GRIDS += 1
        for name, value in asdict(stats).items():
            setattr(_TOTALS, name, getattr(_TOTALS, name) + value)


def compile_stats() -> dict[str, Any]:
    """JSON-safe snapshot of every grid compiled in this process."""
    with _LOCK:
        snapshot = _TOTALS.as_dict()
        snapshot["grids"] = _GRIDS
    return snapshot


def reset_compile_stats() -> None:
    """Zero the process-wide accumulator (benchmarks, tests)."""
    global _TOTALS, _GRIDS
    with _LOCK:
        _TOTALS = CompileStats()
        _GRIDS = 0


__all__ = [
    "CompileStats",
    "CompiledCell",
    "GridProgram",
    "compile_stats",
    "deploy",
    "deploy_outcome",
    "gather",
    "lower",
    "record_compile",
    "reset_compile_stats",
    "scatter",
]
