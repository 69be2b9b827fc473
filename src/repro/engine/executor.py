"""Inference session: the engine's user-facing entry point.

Builds an :class:`ExecutionPlan` (per-op roofline timings) for a deployed
model and exposes the quantities the measurement layer consumes: steady
per-inference latency, one-time initialization cost (excluded from the
paper's timing loop, Section V), and compute utilization (which maps to
power draw).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.errors import OutOfMemoryError
from repro.core.quantity import Seconds
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
    """Aggregates over a plan's timings, computed in one pass."""

    compute_s: float
    memory_s: float
    dispatch_s: float
    roofline_s: float
    op_latency_s: float
    bound_roofline_s: dict[str, float]


@dataclass
class ExecutionPlan:
    """Per-op timings plus aggregate decomposition for one inference.

    Aggregates are summed once on first access and cached; ``timings`` must
    not be mutated after that (plans from the memoization layer are shared,
    so treat them as immutable anyway).
    """

    timings: list[OpTiming] = field(default_factory=list)
    session_overhead_s: float = 0.0
    input_transfer_s: float = 0.0

    @cached_property
    def _totals(self) -> _PlanTotals:
        compute = memory = dispatch = roofline = op_latency = 0.0
        bound = {"compute": 0.0, "memory": 0.0}
        for t in self.timings:
            roof = t.roofline_s
            compute += t.compute_s
            memory += t.memory_s
            dispatch += t.dispatch_s
            roofline += roof
            op_latency += t.latency_s
            bound[t.bound] += roof
        return _PlanTotals(compute, memory, dispatch, roofline, op_latency, bound)

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


@dataclass(frozen=True)
class PlanSpec:
    """Everything needed to price one (deployment, config) pair.

    The resolution work — op schedule, per-op kernel efficiencies, roofline
    constants, framework overheads — is separated from the arithmetic so
    :func:`lower_plan_specs` can price any number of specs through one
    array program: one spec for a session, a whole grid for the sweep
    compiler (:mod:`repro.engine.compile`).
    """

    ops: tuple
    inputs: RooflineInputs
    efficiencies: tuple[float, ...]
    exploit_sparsity: bool
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
    from repro.graphs.ops import Input

    inputs = resolve_roofline_inputs(deployed)
    framework = deployed.framework
    session_overhead = deployed.session_overhead_s / config.batch_size
    if not config.include_framework_overheads:
        session_overhead = 0.0

    input_transfer_s = 0.0
    if deployed.device.transfer is not None:
        input_bytes = sum(op.output_bytes() for op in deployed.graph.inputs)
        output_bytes = sum(op.output_bytes() for op in deployed.graph.outputs)
        input_transfer_s = deployed.device.transfer.transfer_time_s(
            input_bytes + output_bytes
        )

    if config.respect_fusion:
        ops = deployed.graph.schedulable_ops()
    else:
        ops = [op for op in deployed.graph.ops if not isinstance(op, Input)]
    per_op_overhead = deployed.per_op_overhead_s
    if not config.include_framework_overheads:
        per_op_overhead = 0.0
    spill_penalty = 0.5 if deployed.storage_mode == "fabric_spill" else 1.0
    efficiencies = tuple(
        framework.kernel_efficiency(
            op, deployed.unit, deployed.weight_dtype, deployed.graph,
            batch_size=config.batch_size,
        ) * efficiency_scale * spill_penalty
        for op in ops
    )
    return PlanSpec(
        ops=tuple(ops),
        inputs=inputs,
        efficiencies=efficiencies,
        exploit_sparsity=deployed.exploit_sparsity,
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
    ops, n, sparsity, inputs = spec.ops, len(spec.ops), spec.exploit_sparsity, spec.inputs
    if spec.include_memory_term:
        weight_bytes = np.array([op.traffic_weight_bytes(sparsity) for op in ops],
                                dtype=np.float64)
        io_bytes = np.array([op.input_bytes() + op.output_bytes() for op in ops],
                            dtype=np.float64)
    else:
        # Zero traffic makes the memory quotient exactly 0.0.
        weight_bytes = io_bytes = np.zeros(n)
    return (
        np.array([op.effective_macs(sparsity) for op in ops], dtype=np.float64),
        np.asarray(spec.efficiencies, dtype=np.float64),
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
    :class:`ExecutionPlan` per spec.  The program is elementwise, so a
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
    compute_s, memory_s, dispatch_s = lower_rooflines_s(*columns)

    compute_list = compute_s.tolist()
    memory_list = memory_s.tolist()
    dispatch_list = dispatch_s.tolist()
    plans = []
    offset = 0
    for spec in specs:
        end = offset + len(spec.ops)
        timings = [
            OpTiming(op=op, compute_s=c, memory_s=m, dispatch_s=d)
            for op, c, m, d in zip(spec.ops, compute_list[offset:end],
                                   memory_list[offset:end],
                                   dispatch_list[offset:end])
        ]
        offset = end
        plans.append(ExecutionPlan(
            timings=timings,
            session_overhead_s=spec.session_overhead_s,
            input_transfer_s=spec.input_transfer_s,
        ))
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
    busy = sum(
        t.compute_s if t.bound == "compute" else 0.65 * t.roofline_s
        for t in plan.timings
    )
    return min(1.0, busy / latency)


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
        return [Seconds(self.latency_s)] * n_inferences

    def describe(self) -> str:
        plan = self.plan
        return (
            f"{self.deployed.describe()}: {plan.latency_s * 1e3:.1f} ms/inference "
            f"(compute {plan.compute_s * 1e3:.1f} ms, memory {plan.memory_s * 1e3:.1f} ms, "
            f"dispatch {plan.dispatch_s * 1e3:.1f} ms, "
            f"session {plan.session_overhead_s * 1e3:.2f} ms)"
        )
