"""Graph cut-point analysis.

A *cut point* after position ``k`` in the topological order splits the
graph into a prefix (ops 0..k) and a suffix.  The bytes that must cross a
cut are exactly the outputs of prefix ops still consumed by the suffix —
the live set the memory planner already reasons about.  Residual and
multi-branch networks therefore get honest transfer sizes (a cut inside a
ResNet block ships both the trunk and the shortcut).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs import ops as O
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class CutPoint:
    """One feasible split location.

    Attributes:
        index: number of non-input ops in the prefix (0 = everything
            remote; len(ops) = everything local).
        after_op: name of the last prefix op ("" for index 0).
        transfer_bytes: activation bytes crossing the cut.
    """

    index: int
    after_op: str
    transfer_bytes: int


def cut_points(graph: Graph) -> list[CutPoint]:
    """Every cut location with its crossing-tensor size.

    Position 0 ships the raw input; position N ships the final output
    (which any deployment must return anyway, so it is the graph output
    size).  Fused-away ops cannot host a cut — their output does not
    materialize — so cuts land on schedulable ops only.

    One O(ops + edges) sweep: the output materialized at position ``p``
    crosses exactly the cuts ``p < k <= last[p]``, where ``last[p]`` is
    the position of its furthest consumer, so one difference array over
    cut positions yields every crossing sum (exact: byte counts are ints).
    """
    schedulable = graph.schedulable_ops()
    order_index = {id(op): i for i, op in enumerate(schedulable)}
    # Position (in schedulable order) of the op that materializes each
    # op's output; inputs sit at -1, before everything.
    positions: dict[int, int] = {}
    last: dict[int, int] = {}  # producer position -> furthest consumer
    for op in graph.ops:  # topological: parents are positioned first
        anchor = op
        while anchor.fused_into is not None:
            anchor = anchor.fused_into
        consumer_pos = positions[id(op)] = (
            -1 if isinstance(anchor, O.Input) else order_index[id(anchor)])
        for parent in op.inputs:
            producer_pos = positions[id(parent)]
            if consumer_pos > last.get(producer_pos, producer_pos):
                last[producer_pos] = consumer_pos

    count = len(schedulable)
    input_bytes = sum(op.output_bytes() for op in graph.inputs)
    delta = [0] * (count + 1)
    for producer_pos, last_pos in last.items():
        # Raw inputs (position -1) consumed beyond the cut also cross it.
        size = (input_bytes if producer_pos == -1
                else schedulable[producer_pos].output_bytes())
        delta[producer_pos + 1] += size
        delta[last_pos + 1] -= size

    points = [CutPoint(index=0, after_op="", transfer_bytes=input_bytes)]
    output_bytes = sum(op.output_bytes() for op in graph.outputs)
    crossing = delta[0]
    for k in range(1, count + 1):
        crossing += delta[k]
        points.append(CutPoint(
            index=k,
            after_op=schedulable[k - 1].name,
            transfer_bytes=crossing if k < count else output_bytes,
        ))
    return points


def narrowest_cut(graph: Graph) -> CutPoint:
    """The interior cut with the smallest crossing tensor — the natural
    'compress here' point the split literature looks for."""
    interior = cut_points(graph)[1:-1]
    if not interior:
        raise ValueError(f"graph {graph.name!r} has no interior cut points")
    return min(interior, key=lambda p: p.transfer_bytes)
