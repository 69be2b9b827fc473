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

    The crossing sizes are computed once per graph
    (:attr:`repro.graphs.table.OpTable.cut_bytes`); each call only pairs
    them with the op names.
    """
    table = graph.table
    ops = graph.ops
    names = [""] + [ops[i].name for i in table.schedulable.tolist()]
    return [CutPoint(index=k, after_op=name, transfer_bytes=size)
            for k, (name, size) in enumerate(zip(names, table.cut_bytes.tolist()))]


def narrowest_cut(graph: Graph) -> CutPoint:
    """The interior cut with the smallest crossing tensor — the natural
    'compress here' point the split literature looks for."""
    interior = cut_points(graph)[1:-1]
    if not interior:
        raise ValueError(f"graph {graph.name!r} has no interior cut points")
    return min(interior, key=lambda p: p.transfer_bytes)
