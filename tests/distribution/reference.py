"""Test-only scalar references for the distribution algorithms.

``cut_points`` and the pipeline DP run as a linear sweep and as blocked
NumPy tables; these are the direct quadratic formulations they replaced,
kept as the oracle the fast forms must match exactly.
"""

from __future__ import annotations

from repro.distribution.partition import CutPoint
from repro.graphs import ops as O
from repro.graphs.graph import Graph
from tests.graphs.reference import reference_schedulable


def reference_cut_points(graph: Graph) -> list[CutPoint]:
    """Every cut, each rescanning every producer's consumer list."""
    schedulable = reference_schedulable(graph)
    order_index = {id(op): i for i, op in enumerate(schedulable)}

    def position(op: O.Op) -> int:
        anchor = op
        while anchor.fused_into is not None:
            anchor = anchor.fused_into
        if isinstance(anchor, O.Input):
            return -1
        return order_index[id(anchor)]

    consumers: dict[int, list[int]] = {}
    for op in graph.ops:
        consumer_pos = position(op)
        for parent in op.inputs:
            producer_pos = position(parent)
            if producer_pos == consumer_pos:
                continue
            consumers.setdefault(producer_pos, []).append(consumer_pos)

    input_bytes = sum(op.output_bytes() for op in graph.inputs)
    points = [CutPoint(index=0, after_op="", transfer_bytes=input_bytes)]
    output_bytes = sum(op.output_bytes() for op in graph.outputs)
    for k in range(1, len(schedulable) + 1):
        crossing = 0
        for producer_pos, consumer_positions in consumers.items():
            if producer_pos < k and any(pos >= k for pos in consumer_positions):
                if producer_pos == -1:
                    crossing += input_bytes
                else:
                    crossing += schedulable[producer_pos].output_bytes()
        if k == len(schedulable):
            crossing = output_bytes
        points.append(CutPoint(index=k, after_op=schedulable[k - 1].name,
                               transfer_bytes=crossing))
    return points


def reference_boundaries(prefixes: list[list[float]],
                         transfer_at: list[float]) -> list[int]:
    """Stage boundaries of the O(N^2 * D) scalar bottleneck DP.

    Device ``d`` runs ops ``boundaries[d]:boundaries[d + 1]`` priced with
    ``prefixes[d]``; ``transfer_at[k]`` ships the cut after ``k`` ops.
    """
    num_devices = len(prefixes)
    n = len(transfer_at) - 1
    INF = float("inf")
    best = [[INF] * (n + 1) for _ in range(num_devices + 1)]
    choice = [[-1] * (n + 1) for _ in range(num_devices + 1)]
    best[0][0] = 0.0
    for d in range(1, num_devices + 1):
        prefix = prefixes[d - 1]
        for end in range(d, n + 1):
            for start in range(d - 1, end):
                if best[d - 1][start] == INF:
                    continue
                compute = prefix[end] - prefix[start]
                outgoing = (0.0 if (d == num_devices and end == n)
                            else transfer_at[end])
                candidate = max(best[d - 1][start], compute + outgoing)
                if candidate < best[d][end]:
                    best[d][end] = candidate
                    choice[d][end] = start
    assert best[num_devices][n] != INF, "no feasible partition"
    boundaries = [n]
    for d in range(num_devices, 0, -1):
        boundaries.append(choice[d][boundaries[-1]])
    boundaries.reverse()
    return boundaries
