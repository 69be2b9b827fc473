"""Test-only reference for the roofline and the kernel efficiencies.

The engine prices every op through one array program
(``executor.lower_plan_specs`` -> ``roofline.lower_rooflines_s``).
:func:`time_op` is the scalar per-op formula it replaced, kept as the
oracle the array program must match bit for bit: the same IEEE-754 double
operations in the same order, op by op.  :func:`price` and
:func:`time_one` call the production path with the oracle's arguments.

Likewise ``Framework.kernel_efficiencies`` prices a whole spec's kernel
efficiencies column-wise; :func:`kernel_efficiency` is the per-op method
(with the Caffe and NCSDK overrides) it replaced.  And the calibration fit
reads a plan's timing columns; :func:`anchor_latency_components` and
:func:`anchor_latency_at` are the per-op loop over ``plan.timings`` it
replaced.
"""

from __future__ import annotations

import numpy as np

from repro.engine.executor import PlanSpec, lower_plan_specs
from repro.engine.roofline import OpTiming, RooflineInputs
from repro.frameworks.base import Framework
from repro.frameworks.caffe import Caffe
from repro.frameworks.ncsdk import NCSDK
from repro.graphs.graph import Graph
from repro.graphs.ops import Conv3D, DepthwiseConv2D, Op, OpCategory
from repro.hardware.compute import ComputeKind, ComputeUnit


def size_factor(framework: Framework, op: Op, unit: ComputeUnit,
                batch_size: int = 1) -> float:
    """Saturating utilization factor: small ops cannot fill the unit."""
    half, exponent = framework.size_saturation.get(unit.kind, (2e7, 0.5))
    if unit.kind is ComputeKind.CPU:
        half *= unit.cores
    macs = max(1, op.parallel_macs * batch_size)
    return (macs / (macs + half)) ** exponent


def _base_efficiency(framework: Framework, op: Op, unit: ComputeUnit,
                     batch_size: int) -> float:
    base = (framework.kernel_quality.get(unit.kind, 0.15)
            * size_factor(framework, op, unit, batch_size))
    if op.category is OpCategory.CONV:
        if (isinstance(op, DepthwiseConv2D)
                or getattr(op, "groups", 1) == op.output_shape.channels):
            return base * framework.depthwise_efficiency
        if isinstance(op, Conv3D):
            return base * framework.conv3d_efficiency
        return base
    if op.category is OpCategory.DENSE:
        return base
    if op.category is OpCategory.RECURRENT:
        return base * framework.recurrent_efficiency
    if op.category is OpCategory.NORM:
        return base * framework.norm_efficiency
    return max(0.35 * size_factor(framework, op, unit, batch_size), 1e-4)


def kernel_efficiency(framework: Framework, op: Op, unit: ComputeUnit,
                      graph: Graph | None = None, batch_size: int = 1) -> float:
    """Fraction of ``unit`` peak ``framework`` reaches on ``op``."""
    efficiency = _base_efficiency(framework, op, unit, batch_size)
    if isinstance(framework, Caffe):
        if unit.kind is ComputeKind.GPU and isinstance(op, DepthwiseConv2D):
            efficiency *= 0.03 / framework.depthwise_efficiency
    elif isinstance(framework, NCSDK):
        efficiency = efficiency * framework.tuning_quality(graph)
    return efficiency


def time_op(
    op: Op,
    inputs: RooflineInputs,
    efficiency: float,
    exploit_sparsity: bool = False,
    per_op_overhead_s: float = 0.0,
    batch_size: int = 1,
    include_memory_term: bool = True,
) -> OpTiming:
    """Time one op under the roofline model, per inference."""
    if efficiency <= 0:
        raise ValueError(f"efficiency must be positive, got {efficiency}")
    macs = op.effective_macs(exploit_sparsity)
    compute_s = macs / (inputs.peak_macs_per_s * efficiency) if macs else 0.0
    if include_memory_term:
        weight_bytes = op.traffic_weight_bytes(exploit_sparsity)
        io_bytes = op.input_bytes() + op.output_bytes()
        memory_s = (
            weight_bytes / batch_size / inputs.weight_bandwidth_bytes_per_s
            + io_bytes / inputs.memory_bandwidth_bytes_per_s
        )
    else:
        memory_s = 0.0
    dispatch_s = (inputs.dispatch_overhead_s + per_op_overhead_s) / batch_size
    return OpTiming(op=op, compute_s=compute_s, memory_s=memory_s,
                    dispatch_s=dispatch_s)


def spec_for(ops, inputs: RooflineInputs, efficiencies,
             exploit_sparsity: bool = False, per_op_overhead_s: float = 0.0,
             batch_size: int = 1, include_memory_term: bool = True) -> PlanSpec:
    """A plan spec over ``ops`` whose accounting columns come from the
    per-op methods (the values ``resolve_plan_spec`` slices from the
    graph's op table)."""
    ops = tuple(ops)
    return PlanSpec(
        ops=ops,
        macs=np.array([op.effective_macs(exploit_sparsity) for op in ops],
                      dtype=np.float64),
        weight_bytes=np.array([op.traffic_weight_bytes(exploit_sparsity)
                               for op in ops], dtype=np.float64),
        io_bytes=np.array([op.input_bytes() + op.output_bytes() for op in ops],
                          dtype=np.float64),
        inputs=inputs, efficiencies=np.array(efficiencies, dtype=np.float64),
        per_op_overhead_s=per_op_overhead_s, batch_size=batch_size,
        include_memory_term=include_memory_term,
        session_overhead_s=0.0, input_transfer_s=0.0)


def price(ops, inputs: RooflineInputs, efficiencies, **kwargs) -> list[OpTiming]:
    """Per-op timings of one plan, priced by the production path;
    keywords as :func:`spec_for`."""
    spec = spec_for(ops, inputs, efficiencies, **kwargs)
    return lower_plan_specs([spec]).plans[0].timings


def time_one(op: Op, inputs: RooflineInputs, efficiency: float,
             **kwargs) -> OpTiming:
    """One op priced by the production path, with :func:`time_op`'s arguments."""
    (timing,) = price([op], inputs, [efficiency], **kwargs)
    return timing


def anchor_latency_components(framework_name: str, device_name: str,
                              model_name: str) -> tuple[float, list[OpTiming]]:
    """An anchor's uncalibrated session: its fixed seconds and per-op timings."""
    from repro.engine.executor import InferenceSession
    from repro.frameworks import load_framework
    from repro.hardware import load_device
    from repro.models import load_model

    deployed = load_framework(framework_name).deploy(
        load_model(model_name), load_device(device_name))
    plan = InferenceSession(deployed, efficiency_scale=1.0).plan
    return plan.session_overhead_s + plan.input_transfer_s, plan.timings


def anchor_latency_at(scale: float, fixed: float,
                      timings: list[OpTiming]) -> float:
    """Anchor latency at efficiency ``scale``, summed op by op."""
    return fixed + sum(max(t.compute_s / scale, t.memory_s) + t.dispatch_s
                       for t in timings)
