"""Test-only reference for the roofline.

The engine prices every op through one array program
(``executor.lower_plan_specs`` -> ``roofline.lower_rooflines_s``).
:func:`time_op` is the scalar per-op formula it replaced, kept as the
oracle the array program must match bit for bit: the same IEEE-754 double
operations in the same order, op by op.  :func:`price` and
:func:`time_one` call the production path with the oracle's arguments.
"""

from __future__ import annotations

from repro.engine.executor import PlanSpec, lower_plan_specs
from repro.engine.roofline import OpTiming, RooflineInputs
from repro.graphs.ops import Op


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


def price(ops, inputs: RooflineInputs, efficiencies, exploit_sparsity: bool = False,
          per_op_overhead_s: float = 0.0, batch_size: int = 1,
          include_memory_term: bool = True) -> list[OpTiming]:
    """Per-op timings of one plan, priced by the production path."""
    spec = PlanSpec(
        ops=tuple(ops), inputs=inputs, efficiencies=tuple(efficiencies),
        exploit_sparsity=exploit_sparsity, per_op_overhead_s=per_op_overhead_s,
        batch_size=batch_size, include_memory_term=include_memory_term,
        session_overhead_s=0.0, input_transfer_s=0.0)
    return lower_plan_specs([spec]).plans[0].timings


def time_one(op: Op, inputs: RooflineInputs, efficiency: float,
             **kwargs) -> OpTiming:
    """One op priced by the production path, with :func:`time_op`'s arguments."""
    (timing,) = price([op], inputs, [efficiency], **kwargs)
    return timing
