"""Graph freezing (TFLite-style deployment preparation).

Freezing converts variables to constants and strips training-only
operations, which the paper credits for TFLite's reduced memory footprint
(Section III-A).  Here it marks Dropout ops as folded away and flags the
graph so frameworks skip variable-initialization work during session setup.
"""

from __future__ import annotations

from repro.graphs import ops as O
from repro.graphs.graph import Graph


def freeze_in_place(graph: Graph) -> None:
    """Fold training-only ops and mark ``graph`` frozen (mutates it)."""
    for op in graph.ops:
        if isinstance(op, O.Dropout) and not op.is_fused_away:
            producer = op.inputs[0]
            op.fused_into = producer
            producer.absorbed.append(op)
    graph.metadata["frozen"] = True


def freeze_graph(graph: Graph) -> Graph:
    """Return a frozen clone: training-only ops folded, variables constant."""
    frozen = graph.clone()
    freeze_in_place(frozen)
    return frozen
