"""Test-only reference for the columnar op table.

``repro.graphs.table.OpTable`` computes every op's accounting column-wise
and runs liveness and cut sizes as difference arrays.  These are the
per-op forms it replaced — the :class:`~repro.graphs.ops.Op` accounting
methods called op by op, the dict-based reference-counting liveness walk
and the dict-based cut sweep — kept as the oracle the table must match
exactly.
"""

from __future__ import annotations

from repro.graphs import ops as O
from repro.graphs.graph import Graph


def reference_schedulable(graph: Graph) -> list[O.Op]:
    """Ops that still dispatch a kernel, by the op flags alone."""
    return [op for op in graph.ops
            if not op.is_fused_away and not isinstance(op, O.Input)]


def _chain_anchor(op: O.Op) -> O.Op:
    while op.fused_into is not None:
        op = op.fused_into
    return op


def reference_columns(graph: Graph) -> dict[str, list]:
    """Every numeric ``OpColumns`` field, by the per-op methods."""
    ops = graph.ops
    return {
        "out_bytes": [op.output_bytes() for op in ops],
        "in_bytes": [op.input_bytes() for op in ops],
        "param_bytes": [op.weight_bytes() for op in ops],
        "traffic_bytes": [op.traffic_weight_bytes(False) for op in ops],
        "sparse_traffic_bytes": [op.traffic_weight_bytes(True) for op in ops],
        "macs": [float(op.effective_macs(False)) for op in ops],
        "sparse_macs": [float(op.effective_macs(True)) for op in ops],
    }


def reference_structure(graph: Graph) -> dict[str, list]:
    """Every structural table field, by walking the op links."""
    ops = graph.ops
    position = {id(op): i for i, op in enumerate(ops)}
    consumed = {id(parent) for op in ops for parent in op.inputs}
    return {
        "anchor": [position[id(_chain_anchor(op))] for op in ops],
        "fused": [op.is_fused_away for op in ops],
        "is_input": [isinstance(op, O.Input) for op in ops],
        "is_output": [id(op) not in consumed for op in ops],
        "parents": [position[id(parent)] for op in ops for parent in op.inputs],
        "schedulable": [position[id(op)] for op in reference_schedulable(graph)],
    }


def reference_timeline(graph: Graph) -> list[tuple[str, int]]:
    """(op name, live bytes) after each materializing op allocates.

    Reference-counts each materialized buffer until its last chain-external
    consumer has executed; graph outputs stay live to the end.
    """
    remaining_uses = {id(op): 0 for op in graph.ops}
    for op in graph.ops:
        consumer_anchor = _chain_anchor(op)
        for parent in op.inputs:
            producer_anchor = _chain_anchor(parent)
            if producer_anchor is consumer_anchor:
                continue  # edge internal to one fused kernel
            remaining_uses[id(producer_anchor)] += 1
    for op in graph.outputs:
        remaining_uses[id(_chain_anchor(op))] += 1

    timeline = []
    live_bytes = 0
    alive: dict[int, int] = {}
    for op in graph.ops:
        if not op.is_fused_away:
            produced = op.output_bytes()
            alive[id(op)] = produced
            live_bytes += produced
            timeline.append((op.name, live_bytes))
        consumer_anchor = _chain_anchor(op)
        for parent in op.inputs:
            producer_anchor = _chain_anchor(parent)
            if producer_anchor is consumer_anchor:
                continue
            remaining_uses[id(producer_anchor)] -= 1
            if remaining_uses[id(producer_anchor)] == 0:
                live_bytes -= alive.pop(id(producer_anchor), 0)
    return timeline


def reference_peak(graph: Graph) -> int:
    """Peak of :func:`reference_timeline` (0 for a graph with no buffers)."""
    return max((live for _name, live in reference_timeline(graph)), default=0)


def reference_cut_bytes(graph: Graph) -> list[int]:
    """Crossing bytes of every cut, by the dict-based linear sweep."""
    schedulable = reference_schedulable(graph)
    order_index = {id(op): i for i, op in enumerate(schedulable)}
    positions: dict[int, int] = {}
    last: dict[int, int] = {}  # producer position -> furthest consumer
    for op in graph.ops:  # topological: parents are positioned first
        anchor = _chain_anchor(op)
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
        size = (input_bytes if producer_pos == -1
                else schedulable[producer_pos].output_bytes())
        delta[producer_pos + 1] += size
        delta[last_pos + 1] -= size

    crossings = [input_bytes]
    output_bytes = sum(op.output_bytes() for op in graph.outputs)
    crossing = delta[0]
    for k in range(1, count + 1):
        crossing += delta[k]
        crossings.append(crossing if k < count else output_bytes)
    return crossings


def annotations(graph):
    """Everything a transform may change, op for op, plus the metadata
    items in insertion order."""
    def name(op):
        return None if op is None else op.name

    ops = [(op.name, type(op).__name__, op.weight_dtype, op.act_dtype,
            op.weight_sparsity, name(op.fused_into),
            [name(a) for a in op.absorbed], [name(p) for p in op.inputs])
           for op in graph.ops]
    return ops, list(graph.metadata.items())
