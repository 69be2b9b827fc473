"""Kernel fusion.

Fuses BatchNorm and pointwise Activation ops into their producing
convolution / dense layer when the chain is linear (each intermediate has a
single consumer).  Fused ops keep their accounting but are marked
``fused_into``, so the engine skips their kernel dispatch and the memory
round-trip of the intermediate activation — exactly the traffic-saving the
paper describes for TFLite, NCSDK and TensorRT (Section III-B).
"""

from __future__ import annotations

from repro.graphs import ops as O
from repro.graphs.graph import Graph

FUSABLE_PRODUCERS = (O.Conv2D, O.Conv3D, O.Dense)
FUSABLE_FOLLOWERS = (O.BatchNorm, O.Activation)


def _consumer_map(graph: Graph) -> dict[int, list[O.Op]]:
    consumers: dict[int, list[O.Op]] = {id(op): [] for op in graph.ops}
    for op in graph.ops:
        for parent in op.inputs:
            consumers[id(parent)].append(op)
    return consumers


def fuse_in_place(graph: Graph) -> None:
    """Fuse ``graph``'s conv→bn→activation chains (mutates it)."""
    consumers = _consumer_map(graph)
    for op in graph.ops:
        if not isinstance(op, FUSABLE_PRODUCERS) or op.is_fused_away:
            continue
        anchor = op
        cursor = op
        while True:
            next_ops = consumers[id(cursor)]
            if len(next_ops) != 1:
                break
            follower = next_ops[0]
            if not isinstance(follower, FUSABLE_FOLLOWERS) or follower.is_fused_away:
                break
            # Softmax subclasses Activation conceptually but is a separate
            # class here, so only true pointwise activations reach this point.
            follower.fused_into = anchor
            anchor.absorbed.append(follower)
            cursor = follower
    graph.metadata["fused"] = True


def fuse_graph(graph: Graph) -> Graph:
    """Return a clone with conv→bn→activation chains fused."""
    fused = graph.clone()
    fuse_in_place(fused)
    return fused


def fusion_ratio(graph: Graph) -> float:
    """Fraction of non-input ops whose dispatch was eliminated by fusion."""
    candidates = [op for op in graph.ops if not isinstance(op, O.Input)]
    if not candidates:
        return 0.0
    return sum(1 for op in candidates if op.is_fused_away) / len(candidates)
