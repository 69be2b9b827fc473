"""Graph analysis: arithmetic intensity and liveness timelines.

The paper's Table I column FLOP/Param is a whole-model compute-intensity
proxy; the engine's behaviour is really decided per op.  These utilities
expose that structure: each op's operational intensity (MACs per byte
moved), its position against a device's roofline ridge, and the activation
liveness timeline behind ``peak_activation_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs import ops as O
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class OpIntensity:
    """One op's roofline coordinates."""

    name: str
    op_type: str
    macs: int
    bytes_moved: int
    intensity: float  # MACs per byte

    def bound_on(self, ridge_macs_per_byte: float) -> str:
        """"compute" when the op sits right of the device's ridge point."""
        return "compute" if self.intensity >= ridge_macs_per_byte else "memory"


def op_intensity(op: O.Op) -> OpIntensity:
    """Operational intensity of one op (dense weights, annotated dtypes)."""
    bytes_moved = (op.traffic_weight_bytes(False)
                   + op.input_bytes() + op.output_bytes())
    return OpIntensity(
        name=op.name,
        op_type=type(op).__name__,
        macs=op.macs,
        bytes_moved=bytes_moved,
        intensity=op.macs / bytes_moved if bytes_moved else float("inf"),
    )


def intensity_profile(graph: Graph) -> list[OpIntensity]:
    """Roofline coordinates for every schedulable op, in schedule order."""
    return [op_intensity(op) for op in graph.schedulable_ops()]


def ridge_point(peak_macs_per_s: float, bandwidth_bytes_per_s: float) -> float:
    """The intensity (MACs/byte) where a device's roofline bends."""
    if peak_macs_per_s <= 0 or bandwidth_bytes_per_s <= 0:
        raise ValueError("peak and bandwidth must be positive")
    # The MACs/byte intensity has no unit annotation name; the roofline
    # name is standard vocabulary, so it stays suffix-free.
    return peak_macs_per_s / bandwidth_bytes_per_s  # repro: allow[UNIT008]


def bound_split(graph: Graph, peak_macs_per_s: float,
                bandwidth_bytes_per_s: float) -> tuple[float, float]:
    """(compute-bound, memory-bound) MAC fractions against a roofline.

    A purely analytical classification (no framework efficiencies): the
    structural version of the engine's per-op ``bound`` labels.
    """
    ridge = ridge_point(peak_macs_per_s, bandwidth_bytes_per_s)
    compute_macs = 0
    total_macs = 0
    for entry in intensity_profile(graph):
        total_macs += entry.macs
        if entry.bound_on(ridge) == "compute":
            compute_macs += entry.macs
    if total_macs == 0:
        return 0.0, 0.0
    compute_fraction = compute_macs / total_macs
    return compute_fraction, 1.0 - compute_fraction


@dataclass(frozen=True)
class LivenessSample:
    """Live activation bytes while one op executes (inputs + its output)."""

    op_name: str
    live_bytes: int


def liveness_timeline(graph: Graph) -> list[LivenessSample]:
    """Activation liveness at each materializing op (inputs included), in
    schedule order.

    ``max(sample.live_bytes)`` equals ``graph.peak_activation_bytes()``;
    the timeline shows WHERE the peak sits (mid-network for DenseNet's
    dense concatenations, at the first convolutions for VGG).
    """
    table = graph.table
    live = table.live_bytes().tolist()
    ops = graph.ops
    return [LivenessSample(op_name=ops[i].name, live_bytes=live[i])
            for i in np.flatnonzero(~table.fused).tolist()]


def peak_location(graph: Graph) -> tuple[str, int]:
    """(op name, bytes) where activation liveness peaks."""
    timeline = liveness_timeline(graph)
    if not timeline:
        raise ValueError(f"graph {graph.name!r} has no schedulable ops")
    sample = max(timeline, key=lambda s: s.live_bytes)
    return sample.op_name, sample.live_bytes
