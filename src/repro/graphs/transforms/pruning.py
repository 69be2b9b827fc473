"""Weight pruning.

Pruning annotates parametric ops with a weight sparsity.  Whether that
sparsity turns into saved compute/traffic is a *framework* property: every
framework saves storage, but only TensorFlow/TFLite/TensorRT exploit the
fragmented weights during execution (Table II, "Pruning" row).
"""

from __future__ import annotations

from repro.graphs import ops as O
from repro.graphs.graph import Graph

PRUNABLE = (O.Conv2D, O.Conv3D, O.Dense)


def prune_in_place(graph: Graph, sparsity: float, structured: bool = False) -> None:
    """Zero ``sparsity`` of ``graph``'s conv/dense weights (mutates it)."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    for op in graph.ops:
        if isinstance(op, PRUNABLE):
            op.weight_sparsity = sparsity
    graph.metadata["weight_sparsity"] = sparsity
    graph.metadata["structured_pruning"] = structured


def prune_graph(graph: Graph, sparsity: float, structured: bool = False) -> Graph:
    """Return a clone with ``sparsity`` fraction of weights zeroed.

    Args:
        graph: source graph.
        sparsity: fraction in [0, 1) of weights removed from conv/dense ops.
        structured: structured pruning removes whole filters, which every
            backend can exploit; it is recorded in metadata so frameworks
            without sparse kernels may still benefit.
    """
    pruned = graph.clone()
    prune_in_place(pruned, sparsity, structured)
    return pruned
