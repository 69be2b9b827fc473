"""Column-wise kernel efficiencies against the per-op reference.

``Framework.kernel_efficiencies`` prices a whole spec's ops at once from
the op table's kernel facts.  It must equal the per-op formula kept in
``tests/engine/reference`` exactly: for every deployable (model,
framework, device) of the zoo, over the schedulable ops and over every
non-input op, at several batch sizes; and over random DAGs holding every
kernel class, priced by every framework on every compute unit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.frameworks import list_frameworks, load_framework
from repro.graphs import GraphBuilder
from repro.graphs.graph import Graph
from repro.graphs.table import (
    KERNEL_CONV3D,
    KERNEL_DEPTHWISE,
    KERNEL_GEMM,
    KERNEL_NORM,
    KERNEL_RECURRENT,
    KERNEL_STREAMING,
)
from repro.graphs.transforms import freeze_graph, fuse_graph, prune_graph
from repro.hardware import list_devices, load_device
from repro.models import list_models, load_model
from tests.engine.reference import kernel_efficiency

BATCH_SIZES = (1, 2, 8, 64)
FRAMEWORKS = tuple(load_framework(name) for name in list_frameworks())
DEVICES = tuple(load_device(name) for name in list_devices())
UNITS = tuple({(unit.kind, unit.cores): unit
               for device in DEVICES for unit in device.compute_units}.values())


def position_sets(graph: Graph) -> dict[str, np.ndarray]:
    """The two op sets a spec prices: with and without fusion respected."""
    table = graph.table
    return {"schedulable": table.schedulable,
            "non-input": np.flatnonzero(~table.is_input)}


def assert_matches_reference(framework, graph: Graph, unit, batch_size: int,
                             context: str = "",
                             graph_argument: Graph | None = None) -> int:
    """Compare both position sets; return how many values were compared."""
    ops, table = graph.ops, graph.table
    compared = 0
    for label, positions in position_sets(graph).items():
        priced = framework.kernel_efficiencies(table, positions, unit,
                                               graph_argument, batch_size)
        assert priced.dtype == np.float64
        expected = [kernel_efficiency(framework, ops[i], unit, graph_argument,
                                      batch_size)
                    for i in positions.tolist()]
        # Exact equality, not approx: the same float64 operations in the
        # same order, op by op.
        assert priced.tolist() == expected, f"{context} {label}"
        compared += len(expected)
    return compared


class TestZooAgainstReference:
    @pytest.mark.parametrize("model_name", list_models())
    def test_every_deployment_and_batch(self, model_name):
        graph = load_model(model_name)
        compared = 0
        for framework in FRAMEWORKS:
            for device in DEVICES:
                try:
                    deployed = framework.deploy(graph, device)
                except ReproError:
                    continue
                for batch_size in BATCH_SIZES:
                    compared += assert_matches_reference(
                        framework, deployed.graph, deployed.unit, batch_size,
                        f"{framework.name} on {device.name} at batch "
                        f"{batch_size}:", graph_argument=deployed.graph)
        assert compared > 0


class TestExactWork:
    """The product of parallel MACs and batch size stays an exact integer."""

    @pytest.mark.parametrize("macs", [2 ** 62, 10 ** 30])
    def test_work_past_int64(self, macs):
        builder = GraphBuilder("Huge")
        x = builder.input((3, 8, 8))
        conv = builder.conv2d(x, 4, 3)
        builder.relu(conv)
        graph = builder.build()
        conv.macs = macs
        for framework in FRAMEWORKS:
            for unit in UNITS:
                assert_matches_reference(framework, graph, unit, 64)


# -- random DAGs -------------------------------------------------------------


@st.composite
def kernel_dags(draw) -> Graph:
    """Feature maps with ordinary, grouped, depthwise and one-channel
    convolutions, norms and streaming ops; optionally a video branch with
    Conv3D and a token branch with recurrent layers; then fusion, freezing
    or pruning."""
    builder = GraphBuilder("kernel-dag")
    channels = draw(st.integers(1, 4))
    maps = [builder.input((channels, 8, 8))]
    for _ in range(draw(st.integers(1, 8))):
        source = maps[draw(st.integers(0, len(maps) - 1))]
        width = source.output_shape.channels
        kind = draw(st.sampled_from(("conv", "grouped", "depthwise", "one_channel",
                                     "conv_bn_act", "bn", "lrn", "act", "pool",
                                     "add", "dropout")))
        if kind == "conv":
            out = builder.conv2d(source, draw(st.integers(2, 6)), 3)
        elif kind == "grouped":
            out = builder.conv2d(source, width, 3, groups=width)
        elif kind == "depthwise":
            out = builder.depthwise_conv2d(source, 3)
        elif kind == "one_channel":
            out = builder.conv2d(source, 1, 1)
        elif kind == "conv_bn_act":
            out = builder.conv_bn_act(source, draw(st.integers(1, 6)), 3)
        elif kind == "bn":
            out = builder.batch_norm(source)
        elif kind == "lrn":
            out = builder.lrn(source)
        elif kind == "act":
            out = builder.relu(source)
        elif kind == "pool":
            out = builder.max_pool(source, 3, stride=1, padding="same")
        elif kind == "dropout":
            out = builder.dropout(source)
        else:
            partners = [t for t in maps if t is not source
                        and t.output_shape == source.output_shape]
            if not partners:
                continue
            out = builder.add(source, partners[draw(st.integers(0, len(partners) - 1))])
        maps.append(out)
    if draw(st.booleans()):
        x = builder.global_avg_pool(maps[-1])
        x = builder.dense(x, draw(st.integers(1, 8)))
        builder.softmax(x)
    if draw(st.booleans()):
        video = builder.input((draw(st.integers(1, 3)), 4, 8, 8))
        video = builder.conv3d(video, draw(st.integers(1, 4)), 3)
        builder.relu(builder.max_pool3d(video, 2))
    if draw(st.booleans()):
        tokens = builder.input((draw(st.integers(1, 6)),))
        x = builder.embedding(tokens, vocab_size=draw(st.integers(2, 50)), dim=4)
        x = (builder.lstm(x, hidden=3) if draw(st.booleans())
             else builder.gru(x, hidden=3))
        builder.dense(builder.last_timestep(x), 2)
    graph = builder.build()
    for transform in draw(st.lists(st.sampled_from(("fuse", "freeze", "prune")),
                                   max_size=3)):
        if transform == "fuse":
            graph = fuse_graph(graph)
        elif transform == "freeze":
            graph = freeze_graph(graph)
        else:
            graph = prune_graph(graph, draw(st.sampled_from((0.1, 0.5, 0.9))))
    return graph


class TestRandomDags:
    @given(graph=kernel_dags(), framework=st.sampled_from(FRAMEWORKS),
           unit=st.sampled_from(UNITS),
           batch_size=st.sampled_from((1, 2, 3, 8, 64, 1000)),
           with_graph=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_efficiencies_match_reference(self, graph, framework, unit,
                                          batch_size, with_graph):
        assert_matches_reference(framework, graph, unit, batch_size,
                                 graph_argument=graph if with_graph else None)



class TestKernelClasses:
    def test_each_op_kind_maps_to_its_class(self):
        builder = GraphBuilder("classes")
        x = builder.input((4, 8, 8))
        names = {
            "conv": builder.conv2d(x, 8, 3),
            "grouped": builder.conv2d(x, 4, 3, groups=4),
            "depthwise": builder.depthwise_conv2d(x, 3),
            # groups 1 == one output channel: priced as depthwise.
            "one_channel": builder.conv2d(x, 1, 1),
            "conv3d_one_channel": builder.conv3d(builder.input((2, 4, 8, 8)), 1, 3),
            "conv3d": builder.conv3d(builder.input((2, 4, 8, 8)), 3, 3),
            "bn": builder.batch_norm(x),
            "lrn": builder.lrn(x),
            "relu": builder.relu(x),
            "lstm": builder.lstm(builder.input((5, 3)), hidden=4),
            "dense": builder.dense(builder.global_avg_pool(x), 2),
        }
        graph = builder.build()
        kernels = graph.table.kernels
        position = {id(op): i for i, op in enumerate(graph.ops)}
        classes = {name: int(kernels.kernel_class[position[id(op)]])
                   for name, op in names.items()}
        assert classes == {
            "conv": KERNEL_GEMM, "grouped": KERNEL_DEPTHWISE,
            "depthwise": KERNEL_DEPTHWISE, "one_channel": KERNEL_DEPTHWISE,
            "conv3d_one_channel": KERNEL_DEPTHWISE, "conv3d": KERNEL_CONV3D,
            "bn": KERNEL_NORM, "lrn": KERNEL_NORM, "relu": KERNEL_STREAMING,
            "lstm": KERNEL_RECURRENT, "dense": KERNEL_GEMM,
        }
        depthwise = {name for name, op in names.items()
                     if kernels.depthwise[position[id(op)]]}
        assert depthwise == {"depthwise"}
        lstm = names["lstm"]
        assert kernels.parallel_macs[position[id(lstm)]] == lstm.macs // 5

    def test_structure_reads_build_no_kernel_facts(self):
        graph = load_model("MobileNet-v2")
        graph.schedulable_ops()
        assert "kernels" not in vars(graph.table)
