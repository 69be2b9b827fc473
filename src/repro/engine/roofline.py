"""Per-op roofline timing.

Each op's latency is ``max(compute term, memory term) + dispatch``:

* compute term — effective MACs over the unit's peak at the deployment
  datatype, derated by the framework's kernel efficiency;
* memory term — weight traffic (weights are re-streamed every single-batch
  inference; there is no batch reuse, the core reason the paper studies
  single-batch separately) plus activation input/output traffic, over the
  bandwidth the storage mode dictates (DRAM, on-chip buffer, or the SD-card
  paging path of the Table V dynamic-graph fallback).

This is intentionally a first-order model: it reproduces which of the
paper's workloads are compute- versus memory-bound, which is what drives
every cross-platform shape in the evaluation (Section VI-C).

The formula is written once, as the array program
:func:`lower_rooflines_s`.  Its one caller,
:func:`repro.engine.executor.lower_plan_specs`, gathers the per-op
quantities of one plan or of a whole scenario grid into parallel arrays
and prices them in a single call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.ops import Op

# On-chip scratchpads run an order of magnitude faster than edge DRAM.
ON_CHIP_BANDWIDTH_MULTIPLIER = 10.0
# DDR access through an FPGA overlay contends with the fabric (Table V ^^).
FABRIC_SPILL_BANDWIDTH_FACTOR = 0.25


@dataclass(frozen=True)
class RooflineInputs:
    """Device-side constants resolved once per deployment."""

    peak_macs_per_s: float
    memory_bandwidth_bytes_per_s: float
    weight_bandwidth_bytes_per_s: float
    dispatch_overhead_s: float

    def __post_init__(self) -> None:
        for name in ("peak_macs_per_s", "memory_bandwidth_bytes_per_s",
                     "weight_bandwidth_bytes_per_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class OpTiming:
    """Timing decomposition of one op for one inference."""

    op: Op
    compute_s: float
    memory_s: float
    dispatch_s: float

    @property
    def roofline_s(self) -> float:
        return max(self.compute_s, self.memory_s)

    @property
    def latency_s(self) -> float:
        return self.roofline_s + self.dispatch_s

    @property
    def bound(self) -> str:
        return "compute" if self.compute_s >= self.memory_s else "memory"


def lower_rooflines_s(
    macs,
    efficiency,
    peak_macs_per_s,
    weight_bytes,
    io_bytes,
    batch_size,
    weight_bandwidth_bytes_per_s,
    memory_bandwidth_bytes_per_s,
    overhead_s,
):
    """The roofline array program: elementwise timing over parallel arrays.

    Every argument broadcasts, so one program prices every op of every plan
    in a grid at once (per-op arrays for every quantity, concatenated
    across plans).  The program is elementwise, so an op's timing does not
    depend on which other ops share the call.

    Args:
        macs / efficiency / weight_bytes / io_bytes: per-op gathers; MACs
            and bytes already account for exploited sparsity.  An op with
            no MACs gets exactly ``0.0`` compute time.  Callers ablating the
            memory term pass zero byte arrays, so the quotient is exactly
            ``0.0``.
        peak_macs_per_s / batch_size / weight_bandwidth_bytes_per_s /
            memory_bandwidth_bytes_per_s / overhead_s: device/plan
            constants, scalar or expanded per op.  ``overhead_s`` is the
            dispatch overhead plus the framework's per-op overhead.  Weights
            are read and the kernel launched once per *batch*, so both
            amortize across it; compute and activation traffic scale with
            the batch and cancel out.

    Returns:
        ``(compute_s, memory_s, dispatch_s)`` per inference, with the
        argument broadcast shape.
    """
    compute_s = macs / (peak_macs_per_s * efficiency)
    memory_s = (
        weight_bytes / batch_size / weight_bandwidth_bytes_per_s
        + io_bytes / memory_bandwidth_bytes_per_s
    )
    dispatch_s = overhead_s / batch_size
    return compute_s, memory_s, dispatch_s
