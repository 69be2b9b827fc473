"""Inference session: the engine's user-facing entry point.

Builds an :class:`ExecutionPlan` (per-op roofline timing columns) for a
deployed model and exposes the quantities the measurement layer consumes:
steady per-inference latency, one-time initialization cost (excluded from
the paper's timing loop, Section V), and compute utilization (which maps
to power draw).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.errors import OutOfMemoryError
from repro.core.quantity import Seconds
from repro.core.summation import serial_sum_array
from repro.frameworks.base import DeployedModel
from repro.engine.roofline import (
    FABRIC_SPILL_BANDWIDTH_FACTOR,
    ON_CHIP_BANDWIDTH_MULTIPLIER,
    OpTiming,
    RooflineInputs,
    lower_rooflines_s,
)
from repro.graphs.tensor import DType


@dataclass(frozen=True)
class EngineConfig:
    """Engine switches for batching and for the ablation studies.

    The defaults model the paper's setting: single-batch inference with the
    full roofline (compute AND memory terms), framework overheads, and
    fusion respected.  Each switch corresponds to one of DESIGN.md's
    ablation candidates.

    Attributes:
        batch_size: inputs processed per invocation.  Batching amortizes
            weight traffic, dispatch and session overhead across the batch
            and enlarges per-op work (filling wide units) — the multi-batch
            cloud regime the paper contrasts with edge inference.
        include_memory_term: ablation 1 — set False for a pure-FLOP model.
        include_framework_overheads: ablation 2 — set False to drop session
            and per-op framework bookkeeping (hardware dispatch remains).
        respect_fusion: ablation 4 — set False to dispatch and materialize
            every fused-away op as if no fusion had happened.
    """

    batch_size: int = 1
    include_memory_term: bool = True
    include_framework_overheads: bool = True
    respect_fusion: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


class _PlanTotals(NamedTuple):
    """Aggregates over a plan's timing columns."""

    compute_s: float
    memory_s: float
    dispatch_s: float
    roofline_s: float
    op_latency_s: float
    bound_roofline_s: dict[str, float]


@dataclass(eq=False)
class ExecutionPlan:
    """Per-op timing columns plus aggregate decomposition for one inference.

    ``op_compute_s``, ``op_memory_s`` and ``op_dispatch_s`` hold one entry
    per op of ``ops`` (read-only slices of the array program's output).
    Aggregates are summed once on first access and cached; plans from the
    memoization layer are shared, so treat them as immutable.
    """

    ops: tuple
    op_compute_s: np.ndarray
    op_memory_s: np.ndarray
    op_dispatch_s: np.ndarray
    session_overhead_s: float = 0.0
    input_transfer_s: float = 0.0

    @property
    def timings(self) -> list[OpTiming]:
        """One :class:`OpTiming` per op, built on each call (not stored)."""
        return [OpTiming(op=op, compute_s=c, memory_s=m, dispatch_s=d)
                for op, c, m, d in zip(self.ops, self.op_compute_s.tolist(),
                                       self.op_memory_s.tolist(),
                                       self.op_dispatch_s.tolist())]

    @property
    def op_latency_s(self) -> np.ndarray:
        """Per-op latency: the roofline term plus dispatch."""
        return np.maximum(self.op_compute_s, self.op_memory_s) + self.op_dispatch_s

    @cached_property
    def _totals(self) -> _PlanTotals:
        # One sequential cumsum per column adds left to right, as a ``+=``
        # loop over the ops would (``np.sum`` adds pairwise).
        compute, memory, dispatch = self.op_compute_s, self.op_memory_s, self.op_dispatch_s
        roof = np.maximum(compute, memory)
        bound = compute >= memory
        columns = np.stack([compute, memory, dispatch, roof, roof + dispatch,
                            np.where(bound, roof, 0.0), np.where(bound, 0.0, roof)])
        sums = np.cumsum(columns, axis=1)[:, -1].tolist() if compute.size else [0.0] * 7
        return _PlanTotals(*sums[:5], {"compute": sums[5], "memory": sums[6]})

    @property
    def compute_s(self) -> float:
        return self._totals.compute_s

    @property
    def memory_s(self) -> float:
        return self._totals.memory_s

    @property
    def dispatch_s(self) -> float:
        return self._totals.dispatch_s

    @property
    def roofline_s(self) -> float:
        return self._totals.roofline_s

    @property
    def latency_s(self) -> float:
        return self.session_overhead_s + self.input_transfer_s + self._totals.op_latency_s

    def bound_fraction(self, bound: str) -> float:
        """Fraction of roofline time spent in ``"compute"``/``"memory"``-bound ops."""
        totals = self._totals
        if totals.roofline_s == 0:
            return 0.0
        return totals.bound_roofline_s.get(bound, 0.0) / totals.roofline_s


@dataclass(frozen=True, eq=False)
class PlanSpec:
    """Everything needed to price one (deployment, config) pair.

    The resolution work — op schedule, per-op accounting sliced from the
    graph's :class:`~repro.graphs.table.OpTable`, kernel efficiencies,
    roofline constants, framework overheads — is separated from the
    arithmetic so :func:`lower_plan_specs` can price any number of specs
    through one array program: one spec for a session, a whole grid for
    the sweep compiler (:mod:`repro.engine.compile`).

    ``macs``, ``weight_bytes``, ``io_bytes`` and ``efficiencies`` are
    float64 arrays with one entry per op of ``ops``: effective MACs and
    weight traffic (under the deployment's exploited sparsity), activation
    input + output bytes, and calibrated kernel efficiency.
    """

    ops: tuple
    macs: np.ndarray
    weight_bytes: np.ndarray
    io_bytes: np.ndarray
    inputs: RooflineInputs
    efficiencies: np.ndarray
    per_op_overhead_s: float
    batch_size: int
    include_memory_term: bool
    session_overhead_s: float
    input_transfer_s: float


def check_batch_memory(deployed: DeployedModel, batch_size: int) -> None:
    """Batched activations must still fit; deployment only checked batch 1
    (the edge regime)."""
    if batch_size == 1:
        return
    footprint = (
        deployed.footprint_bytes()
        + (batch_size - 1) * deployed.peak_activation_bytes()
    )
    usable = deployed.device.memory.usable_bytes
    if footprint > usable:
        raise OutOfMemoryError(
            f"batch {batch_size} of {deployed.graph.name} needs "
            f"{footprint / 2**20:.0f} MiB on {deployed.device.name} "
            f"({usable / 2**20:.0f} MiB usable)",
            required_bytes=footprint,
            available_bytes=usable,
        )


def resolve_roofline_inputs(deployed: DeployedModel) -> RooflineInputs:
    """Device-side roofline constants for one deployment (pure)."""
    unit = deployed.unit
    memory = deployed.device.memory
    dtype = deployed.weight_dtype
    peak = unit.peak(dtype) if unit.supports(dtype) else unit.peak(DType.FP32)

    bandwidth = memory.bandwidth_bytes_per_s
    weight_bandwidth = bandwidth
    total_weights = deployed.weight_bytes()
    if deployed.storage_mode == "paged":
        # Dynamic-graph fallback: weights stream from backing store every
        # inference — the order-of-magnitude penalty of Table V.
        weight_bandwidth = memory.storage_bandwidth_bytes_per_s
    elif deployed.storage_mode == "fabric_spill":
        # Un-ported models stream every tile through host DDR3 with the
        # overlay stalled on it: bandwidth collapses and the GEMM core
        # runs at a fraction of its ported efficiency (Table V ^^).
        bandwidth *= FABRIC_SPILL_BANDWIDTH_FACTOR
        weight_bandwidth = bandwidth
    elif unit.on_chip_buffer_bytes and total_weights <= unit.on_chip_buffer_bytes:
        # The whole model lives in the accelerator scratchpad (EdgeTPU
        # running MobileNet-class networks): weights AND the activation
        # working set stay on-chip.
        bandwidth *= ON_CHIP_BANDWIDTH_MULTIPLIER
        weight_bandwidth = bandwidth
    return RooflineInputs(
        peak_macs_per_s=peak,
        memory_bandwidth_bytes_per_s=bandwidth,
        weight_bandwidth_bytes_per_s=weight_bandwidth,
        dispatch_overhead_s=unit.dispatch_overhead_s,
    )


def resolve_plan_spec(deployed: DeployedModel, config: EngineConfig,
                      efficiency_scale: float) -> PlanSpec:
    """Resolve the op schedule, efficiencies and overheads for one plan."""
    inputs = resolve_roofline_inputs(deployed)
    framework = deployed.framework
    graph = deployed.graph
    table = graph.table
    columns = table.columns
    session_overhead = deployed.session_overhead_s / config.batch_size
    if not config.include_framework_overheads:
        session_overhead = 0.0

    input_transfer_s = 0.0
    if deployed.device.transfer is not None:
        input_bytes = int(columns.out_bytes[table.is_input].sum())
        output_bytes = int(columns.out_bytes[table.is_output].sum())
        input_transfer_s = deployed.device.transfer.transfer_time_s(
            input_bytes + output_bytes
        )

    if config.respect_fusion:
        positions = table.schedulable
    else:
        positions = np.flatnonzero(~table.is_input)
    ops = tuple(graph.ops[i] for i in positions.tolist())
    if deployed.exploit_sparsity:
        macs, weight_bytes = columns.sparse_macs, columns.sparse_traffic_bytes
    else:
        macs, weight_bytes = columns.macs, columns.traffic_bytes
    per_op_overhead = deployed.per_op_overhead_s
    if not config.include_framework_overheads:
        per_op_overhead = 0.0
    spill_penalty = 0.5 if deployed.storage_mode == "fabric_spill" else 1.0
    efficiencies = framework.kernel_efficiencies(
        table, positions, deployed.unit, graph, config.batch_size,
    ) * efficiency_scale * spill_penalty
    return PlanSpec(
        ops=ops,
        macs=macs[positions],
        weight_bytes=weight_bytes[positions].astype(np.float64),
        io_bytes=(columns.in_bytes[positions]
                  + columns.out_bytes[positions]).astype(np.float64),
        inputs=inputs,
        efficiencies=efficiencies,
        per_op_overhead_s=per_op_overhead,
        batch_size=config.batch_size,
        include_memory_term=config.include_memory_term,
        session_overhead_s=session_overhead,
        input_transfer_s=input_transfer_s,
    )


class LoweredPlans(NamedTuple):
    """The plans one array program priced, plus its global counters."""

    plans: list[ExecutionPlan]
    ops: int
    macs: float
    traffic_bytes: float


def _op_columns(spec: PlanSpec) -> tuple[np.ndarray, ...]:
    """One spec's per-op roofline inputs, in :func:`lower_rooflines_s` order."""
    n, inputs = len(spec.ops), spec.inputs
    if spec.include_memory_term:
        weight_bytes, io_bytes = spec.weight_bytes, spec.io_bytes
    else:
        # Zero traffic makes the memory quotient exactly 0.0.
        weight_bytes = io_bytes = np.zeros(n)
    return (
        spec.macs,
        spec.efficiencies,
        np.full(n, inputs.peak_macs_per_s),
        weight_bytes,
        io_bytes,
        np.full(n, spec.batch_size, dtype=np.float64),
        np.full(n, inputs.weight_bandwidth_bytes_per_s),
        np.full(n, inputs.memory_bandwidth_bytes_per_s),
        np.full(n, inputs.dispatch_overhead_s + spec.per_op_overhead_s),
    )


def lower_plan_specs(specs: Sequence[PlanSpec]) -> LoweredPlans:
    """Price resolved specs through ONE roofline array program.

    The single per-op gather of the engine: every spec's MACs, weight
    traffic, activation I/O, kernel efficiency and device constants are
    concatenated into parallel float64 arrays, priced in one
    :func:`lower_rooflines_s` call, and split back into one
    :class:`ExecutionPlan` per spec, whose timing columns are read-only
    slices of the program's output.  The program is elementwise, so a
    plan comes out the same whichever other specs share the call.

    Returns:
        The plans in spec order, the number of ops priced, and the MACs
        and (weight + activation) bytes summed over them.
    """
    per_spec = [_op_columns(spec) for spec in specs]
    columns = ([np.concatenate(column) for column in zip(*per_spec)] if per_spec
               else [np.zeros(0)] * 9)
    macs, efficiency, _peak, weight_bytes, io_bytes = columns[:5]
    if macs.size and np.any(efficiency <= 0):
        worst = float(efficiency.min())
        raise ValueError(f"efficiency must be positive, got {worst}")
    seconds = lower_rooflines_s(*columns)
    for column in seconds:
        column.flags.writeable = False
    compute_s, memory_s, dispatch_s = seconds

    plans = []
    offset = 0
    for spec in specs:
        end = offset + len(spec.ops)
        plans.append(ExecutionPlan(
            ops=spec.ops,
            op_compute_s=compute_s[offset:end],
            op_memory_s=memory_s[offset:end],
            op_dispatch_s=dispatch_s[offset:end],
            session_overhead_s=spec.session_overhead_s,
            input_transfer_s=spec.input_transfer_s,
        ))
        offset = end
    return LoweredPlans(plans=plans, ops=int(macs.size),
                        macs=float(macs.sum()),
                        traffic_bytes=float(weight_bytes.sum() + io_bytes.sum()))


def plan_utilization(plan: ExecutionPlan) -> float:
    """Compute-unit busy fraction for one executed plan, in [0, 1].

    Memory-bound phases keep the unit partially busy (prefetch + arithmetic
    on the streaming data), overheads leave it idle.
    """
    latency = plan.latency_s
    if latency == 0:
        return 0.0
    compute, memory = plan.op_compute_s, plan.op_memory_s
    busy = np.where(compute >= memory, compute, 0.65 * memory)
    return min(1.0, serial_sum_array(busy) / latency)


def deployed_init_time_s(deployed: DeployedModel) -> float:
    """One-time setup cost of a deployment (outside the timed loop)."""
    return (
        deployed.library_load_s
        + deployed.graph_setup_s
        + deployed.weight_load_s
        + deployed.transfer_setup_s
        + deployed.device_staging_s
    )


class InferenceSession:
    """Single-batch inference of one deployed model.

    Args:
        deployed: output of :meth:`Framework.deploy`.
        efficiency_scale: calibration multiplier on kernel efficiency; the
            default ``None`` resolves the one-point anchor calibration for
            the (framework, device) pair.
    """

    def __init__(self, deployed: DeployedModel, efficiency_scale: float | None = None,
                 config: EngineConfig | None = None):
        self.deployed = deployed
        self.config = config or EngineConfig()
        if efficiency_scale is None:
            from repro.engine.calibration import efficiency_scale as resolve

            efficiency_scale = resolve(deployed.framework.name, deployed.device.name)
        self.efficiency_scale = efficiency_scale
        check_batch_memory(deployed, self.config.batch_size)
        self.plan = self._build_plan()

    # -- plan construction -------------------------------------------------
    def _build_plan(self) -> ExecutionPlan:
        from repro.engine import cache as engine_cache

        key = engine_cache.plan_key(self.deployed, self.config, self.efficiency_scale)
        if key is None:
            return self._compute_plan()
        return engine_cache.PLAN_CACHE.get_or_build(key, self._compute_plan)

    def _compute_plan(self) -> ExecutionPlan:
        spec = resolve_plan_spec(self.deployed, self.config, self.efficiency_scale)
        return lower_plan_specs([spec]).plans[0]

    # -- user-facing quantities ---------------------------------------------
    @property
    def latency_s(self) -> float:
        """Steady-state time per single-batch inference (seconds)."""
        return self.plan.latency_s

    @property
    def init_time_s(self) -> float:
        """One-time setup cost, excluded from the paper's timing loop."""
        return deployed_init_time_s(self.deployed)

    @property
    def utilization(self) -> float:
        """Compute-unit busy fraction during an inference, in [0, 1]."""
        return plan_utilization(self.plan)

    def run(self, n_inferences: int) -> list[Seconds]:
        """Simulate ``n_inferences`` timed runs, returning per-run seconds.

        Deterministic: the measurement layer adds instrument noise.
        """
        if n_inferences <= 0:
            raise ValueError(f"n_inferences must be positive, got {n_inferences}")
        return [self.latency_s] * n_inferences

    def describe(self) -> str:
        plan = self.plan
        return (
            f"{self.deployed.describe()}: {plan.latency_s * 1e3:.1f} ms/inference "
            f"(compute {plan.compute_s * 1e3:.1f} ms, memory {plan.memory_s * 1e3:.1f} ms, "
            f"dispatch {plan.dispatch_s * 1e3:.1f} ms, "
            f"session {plan.session_overhead_s * 1e3:.2f} ms)"
        )
