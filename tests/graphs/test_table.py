"""The columnar op table against the per-op reference.

Every ``OpTable`` column, the liveness peak and timeline and the cut
crossing sizes must equal the per-op forms kept in ``tests/graphs/reference``
exactly: over the whole zoo under every transform a deployment applies, and
over random DAGs with branches, residual adds, concats, fusion chains,
mixed dtypes and sparsity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution.partition import cut_points
from repro.graphs import GraphBuilder
from repro.graphs import ops as O
from repro.graphs.analysis import liveness_timeline
from repro.graphs.graph import Graph
from repro.graphs.tensor import DType
from repro.graphs.transforms import freeze_graph, fuse_graph, prune_graph, quantize_graph
from repro.models import list_models, load_model
from tests.graphs.reference import (
    reference_columns,
    reference_cut_bytes,
    reference_peak,
    reference_structure,
    reference_timeline,
)


def variants(graph: Graph) -> dict[str, Graph]:
    """The graph as built and under every transform a deployment applies."""
    frozen = freeze_graph(graph)
    return {
        "built": graph,
        "fused": fuse_graph(graph),
        "int8": quantize_graph(graph, DType.INT8),
        "fp16": quantize_graph(graph, DType.FP16),
        "binary": quantize_graph(graph, DType.BINARY),
        "frozen": frozen,
        "frozen+fused": fuse_graph(frozen),
        "pruned": prune_graph(graph, sparsity=0.5),
    }


def assert_matches_reference(graph: Graph) -> None:
    table = graph.table
    for name, expected in reference_structure(graph).items():
        assert getattr(table, name).tolist() == expected, name
    for name, expected in reference_columns(graph).items():
        assert getattr(table.columns, name).tolist() == expected, name
    assert graph.peak_activation_bytes() == reference_peak(graph)
    assert [(s.op_name, s.live_bytes) for s in liveness_timeline(graph)] \
        == reference_timeline(graph)
    assert [cut.transfer_bytes for cut in cut_points(graph)] \
        == reference_cut_bytes(graph)
    assert graph.weight_bytes() == sum(op.weight_bytes() for op in graph.ops)


class TestZooAgainstReference:
    @pytest.mark.parametrize("model_name", list_models())
    def test_every_column_peak_and_cut(self, model_name):
        for label, graph in variants(load_model(model_name)).items():
            try:
                assert_matches_reference(graph)
            except AssertionError as error:
                raise AssertionError(f"{model_name} ({label}): {error}") from error

    def test_integer_columns_are_exact_python_ints(self):
        graph = load_model("ResNet-18")
        assert type(graph.weight_bytes()) is int
        assert type(graph.peak_activation_bytes()) is int
        assert all(type(cut.transfer_bytes) is int for cut in cut_points(graph))


class TestOwnTable:
    """A table belongs to one graph: clones and transforms build their own."""

    def test_clone_and_every_transform_start_without_a_table(self):
        graph = load_model("MobileNet-v2")
        table = graph.table
        outputs = {"clone": graph.clone(), **variants(graph)}
        del outputs["built"]
        for label, output in outputs.items():
            assert output._table is None, label
            assert output.table is not table, label
            assert output.table is output.table, label
            assert_matches_reference(output)
        assert graph.table is table  # the source keeps its own, untouched
        assert_matches_reference(graph)

    def test_transform_of_a_read_graph_sees_its_own_annotations(self):
        graph = load_model("ResNet-18")
        dense_bytes = graph.weight_bytes()
        quantized = quantize_graph(graph, DType.INT8)
        assert quantized.weight_bytes() < dense_bytes
        assert graph.weight_bytes() == dense_bytes


class TestStructureWithoutNumbers:
    def test_schedulable_ops_never_build_the_columns(self):
        """Structure must not depend on the numeric columns: a MAC count
        too large for float64 still schedules (the graph pass reports it)."""
        builder = GraphBuilder("Huge")
        x = builder.input((3, 8, 8))
        conv = builder.conv2d(x, 4, 3)
        builder.relu(conv)
        graph = builder.build()
        conv.macs = 10 ** 400
        assert graph.schedulable_ops() == graph.ops[1:]
        assert "columns" not in vars(graph.table)
        with pytest.raises(OverflowError):
            graph.table.columns

    def test_op_outside_the_graph_is_a_value_error(self):
        graph = fuse_graph(load_model("ResNet-18"))
        del graph.ops[1]
        with pytest.raises(ValueError, match="outside the graph"):
            graph.table

    def test_fusion_cycle_is_a_value_error(self):
        graph = load_model("ResNet-18").clone()
        conv, bn = graph.op("conv_1"), graph.ops[2]
        conv.fused_into, bn.fused_into = bn, conv
        with pytest.raises(ValueError, match="does not terminate"):
            graph.table


# -- random DAGs -------------------------------------------------------------

_DTYPES = tuple(DType)


@st.composite
def random_dags(draw) -> Graph:
    """Branches, residual adds, concats and fusable chains over 8x8 maps,
    an optional second input and token branch, then transforms, mixed
    dtypes and sparsity."""
    builder = GraphBuilder("random-dag")
    channels = draw(st.integers(1, 4))
    tensors = [builder.input((channels, 8, 8))]
    if draw(st.booleans()):
        tensors.append(builder.input((draw(st.integers(1, 4)), 8, 8)))
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(
            ("conv", "conv_bn_act", "act", "pool", "add", "concat", "dropout")))
        source = tensors[draw(st.integers(0, len(tensors) - 1))]
        if kind == "conv":
            out = builder.conv2d(source, draw(st.integers(1, 6)),
                                 draw(st.sampled_from((1, 3))))
        elif kind == "conv_bn_act":
            out = builder.conv_bn_act(source, draw(st.integers(1, 6)), 3)
        elif kind == "act":
            out = builder.relu(source)
        elif kind == "pool":
            out = builder.max_pool(source, 3, stride=1, padding="same")
        elif kind == "dropout":
            out = builder.dropout(source)
        else:
            partners = [t for t in tensors if t is not source and (
                t.output_shape == source.output_shape if kind == "add"
                else t.output_shape.spatial == source.output_shape.spatial)]
            if not partners:
                continue
            partner = partners[draw(st.integers(0, len(partners) - 1))]
            out = (builder.add(source, partner) if kind == "add"
                   else builder.concat(source, partner))
        tensors.append(out)
    if draw(st.booleans()):
        x = builder.global_avg_pool(tensors[-1])
        x = builder.dense(x, draw(st.integers(1, 8)))
        builder.relu(x)
    if draw(st.booleans()):
        tokens = builder.input((draw(st.integers(1, 6)),))
        x = builder.embedding(tokens, vocab_size=draw(st.integers(2, 50)), dim=4)
        builder.last_timestep(builder.lstm(x, hidden=3))
    graph = builder.build()

    for transform in draw(st.lists(st.sampled_from(("fuse", "freeze", "prune")),
                                   max_size=3)):
        if transform == "fuse":
            graph = fuse_graph(graph)
        elif transform == "freeze":
            graph = freeze_graph(graph)
        else:
            graph = prune_graph(graph, draw(st.sampled_from((0.1, 0.5, 0.9))))
    graph = graph.clone()
    for op in graph.ops:
        if draw(st.booleans()):
            op.weight_dtype = draw(st.sampled_from(_DTYPES))
            op.act_dtype = draw(st.sampled_from(_DTYPES))
        if draw(st.integers(0, 3)) == 0:
            op.weight_sparsity = draw(st.floats(0.0, 0.99))
    if draw(st.integers(0, 3)) == 0:
        # Arbitrary terminating fusion links, forward ones included: each
        # op may only fuse into an op of higher rank, so chains end.
        kernels = [op for op in graph.ops
                   if not isinstance(op, O.Input) and op.fused_into is None]
        rank = {id(op): draw(st.integers(0, 99)) for op in kernels}
        for op in kernels:
            targets = [t for t in kernels if rank[id(t)] > rank[id(op)]]
            if targets and draw(st.booleans()):
                op.fused_into = targets[draw(st.integers(0, len(targets) - 1))]
    return graph


class TestRandomDags:
    @given(graph=random_dags())
    @settings(max_examples=80, deadline=None)
    def test_table_matches_reference(self, graph):
        assert_matches_reference(graph)

    @given(graph=random_dags())
    @settings(max_examples=30, deadline=None)
    def test_schedulable_ops_are_the_dispatching_ops(self, graph):
        assert graph.schedulable_ops() == [
            op for op in graph.ops
            if not op.is_fused_away and not isinstance(op, O.Input)]
