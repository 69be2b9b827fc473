"""Graphs and seeded defects shared by the graph-pass tests.

``tiny_graph`` is the small CNN every seeded-defect test starts from, and
:data:`GRAPH_DEFECTS` seeds each defect the IR rule tests pin, with every
rule :func:`repro.check.graphs.verify_graph` reports for it.
"""

from __future__ import annotations

import functools

from repro.check import graphs
from repro.graphs import ops as O
from repro.graphs.graph import GraphBuilder
from repro.graphs.tensor import DType


def tiny_graph():
    builder = GraphBuilder("TinyNet")
    x = builder.input((3, 8, 8))
    x = builder.conv2d(x, 4, 3, name="conv_1")
    x = builder.batch_norm(x, name="bn_1")
    x = builder.relu(x, name="relu_1")
    x = builder.global_avg_pool(x)
    x = builder.dropout(x, name="dropout_1")
    x = builder.dense(x, 10, name="dense_1")
    return builder.build()


def recurrent_graph(return_sequences=False):
    builder = GraphBuilder("TinyRNN")
    x = builder.input((16,), name="tokens")
    x = builder.embedding(x, vocab_size=64, dim=8, name="embed")
    x = builder.lstm(x, hidden=12, return_sequences=return_sequences,
                     name="lstm_1")
    if return_sequences:
        x = builder.flatten(x, name="flat_1")
    x = builder.dense(x, 64, name="dense_1")
    return builder.build()


def rules_of(findings):
    return {finding.rule for finding in findings}


@functools.cache
def zoo_findings(model_name: str) -> tuple:
    """One run of the graph pass over one zoo model (its structure,
    derivation and transforms), shared by the tests that pin each rule
    family on the zoo."""
    return tuple(graphs.verify_model(model_name))


def _out_of_order(graph):
    graph.ops.reverse()


def _parent_outside_graph(graph):
    del graph.ops[1]  # conv vanishes but bn still consumes it


def _duplicate_name(graph):
    graph.op("bn_1").name = "conv_1"


def _missing_input(graph):
    graph.ops = [op for op in graph.ops if not isinstance(op, O.Input)]


def _corrupted_shape(graph):
    graph.op("conv_1").output_shape = (4, 6, 6)  # a bare tuple


def _dtype_break_across_edge(graph):
    graph.op("bn_1").act_dtype = DType.FP16


def _non_dtype_annotation(graph):
    graph.op("conv_1").weight_dtype = "fp32"


def _negative_params(graph):
    graph.op("conv_1").params = -5


def _sparsity_out_of_range(graph):
    graph.op("dense_1").weight_sparsity = 1.5


def _fusion_without_backlink(graph):
    graph.op("bn_1").fused_into = graph.op("conv_1")


def _zero_byte_traffic(graph):
    dense = graph.op("dense_1")
    dense.traffic_weight_bytes = lambda exploit_sparsity=False: 0
    dense.input_bytes = lambda: 0
    dense.output_bytes = lambda: 0


def _overflowing_macs(graph):
    graph.op("conv_1").macs = 10 ** 400  # valid int, breaks float math


#: seeded graph defect -> (seeding step, every rule verify_graph
#: reports).  The derivation runs only while IR001-IR005 are clean, so only
#: the accounting defects (IR006, IR008) also report SHAPE005, and a dtype
#: break across an edge is reported once, as SHAPE002.
GRAPH_DEFECTS = {
    "out_of_order_dataflow": (_out_of_order, {"IR001"}),
    "parent_outside_graph": (_parent_outside_graph, {"IR001"}),
    "duplicate_name": (_duplicate_name, {"IR002"}),
    "missing_input": (_missing_input, {"IR001", "IR003"}),
    "corrupted_shape": (_corrupted_shape, {"IR004"}),
    "dtype_break_across_edge": (_dtype_break_across_edge, {"SHAPE002"}),
    "non_dtype_annotation": (_non_dtype_annotation, {"IR005"}),
    "negative_params": (_negative_params, {"IR006", "SHAPE005"}),
    "sparsity_out_of_range": (_sparsity_out_of_range, {"IR006"}),
    "fusion_without_backlink": (_fusion_without_backlink, {"IR007"}),
    "zero_byte_traffic": (_zero_byte_traffic, {"IR008", "SHAPE005"}),
    "overflowing_macs": (_overflowing_macs, {"IR008", "SHAPE005"}),
}


def seeded(defect: str):
    """``tiny_graph`` with one :data:`GRAPH_DEFECTS` defect seeded."""
    graph = tiny_graph()
    GRAPH_DEFECTS[defect][0](graph)
    return graph
