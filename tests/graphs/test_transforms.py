"""Graph transforms: fusion, quantization, pruning, freezing."""

import pytest

from repro.graphs import GraphBuilder
from repro.graphs import ops as O
from repro.graphs.tensor import DType
from repro.graphs.transforms import (
    freeze_graph,
    freeze_in_place,
    fuse_graph,
    fuse_in_place,
    fusion_ratio,
    prune_graph,
    prune_in_place,
    quantize_graph,
    quantize_in_place,
)
from tests.graphs.reference import annotations


def _conv_bn_relu_graph():
    b = GraphBuilder("cbr")
    x = b.input((3, 16, 16))
    x = b.conv_bn_act(x, 8, 3)
    x = b.conv_bn_act(x, 8, 3)
    b.global_avg_pool(x)
    return b.build()


def _branched_graph():
    """BN consumed by two ops: must NOT fuse into the conv."""
    b = GraphBuilder("branch")
    x = b.input((4, 8, 8))
    conv = b.conv2d(x, 4, 3, use_bias=False)
    bn = b.batch_norm(conv)
    left = b.relu(bn)
    b.add(left, bn)
    return b.build()


class TestFusion:
    def test_bn_and_act_fuse_into_conv(self):
        fused = fuse_graph(_conv_bn_relu_graph())
        convs = [op for op in fused.ops if isinstance(op, O.Conv2D)]
        for conv in convs:
            kinds = {type(a) for a in conv.absorbed}
            assert kinds == {O.BatchNorm, O.Activation}

    def test_fused_ops_skip_scheduling(self):
        graph = _conv_bn_relu_graph()
        fused = fuse_graph(graph)
        assert len(fused.schedulable_ops()) < len(graph.schedulable_ops())

    def test_original_untouched(self):
        graph = _conv_bn_relu_graph()
        fuse_graph(graph)
        assert all(not op.is_fused_away for op in graph.ops)

    def test_multi_consumer_stops_the_chain(self):
        """conv+bn may fuse (the kernel still writes bn's output once), but
        the chain must stop there: the relu reads a materialized buffer."""
        fused = fuse_graph(_branched_graph())
        bn = next(op for op in fused.ops if isinstance(op, O.BatchNorm))
        relu = next(op for op in fused.ops if isinstance(op, O.Activation))
        assert bn.is_fused_away
        assert not relu.is_fused_away

    def test_fusion_ratio(self):
        graph = _conv_bn_relu_graph()
        assert fusion_ratio(graph) == 0.0
        fused = fuse_graph(graph)
        # 2 BN + 2 ReLU fused out of 7 non-input ops.
        assert fusion_ratio(fused) == pytest.approx(4 / 7)

    def test_metadata_flag(self):
        assert fuse_graph(_conv_bn_relu_graph()).metadata["fused"] is True

    def test_dense_chain_fuses(self):
        b = GraphBuilder("dense")
        x = b.input((16,))
        x = b.dense(x, 8)
        b.relu(x)
        fused = fuse_graph(b.build())
        dense = next(op for op in fused.ops if isinstance(op, O.Dense))
        assert len(dense.absorbed) == 1


class TestQuantization:
    def test_int8_sets_both_dtypes(self):
        quant = quantize_graph(_conv_bn_relu_graph(), DType.INT8)
        assert all(op.weight_dtype is DType.INT8 for op in quant.ops)
        assert all(op.act_dtype is DType.INT8 for op in quant.ops)

    def test_binary_keeps_int8_activations(self):
        quant = quantize_graph(_conv_bn_relu_graph(), DType.BINARY)
        assert all(op.weight_dtype is DType.BINARY for op in quant.ops)
        assert all(op.act_dtype is DType.INT8 for op in quant.ops)

    def test_explicit_act_dtype(self):
        quant = quantize_graph(_conv_bn_relu_graph(), DType.INT8, DType.FP16)
        assert quant.ops[1].act_dtype is DType.FP16

    def test_weight_bytes_shrink(self):
        graph = _conv_bn_relu_graph()
        quant = quantize_graph(graph, DType.INT8)
        assert quant.weight_bytes() < graph.weight_bytes() / 3

    def test_metadata_records_dtypes(self):
        quant = quantize_graph(_conv_bn_relu_graph(), DType.FP16)
        assert quant.metadata["weight_dtype"] == "fp16"

    def test_source_untouched(self):
        graph = _conv_bn_relu_graph()
        quantize_graph(graph, DType.INT8)
        assert graph.ops[1].weight_dtype is DType.FP32


class TestPruning:
    def test_only_parametric_ops_annotated(self):
        pruned = prune_graph(_conv_bn_relu_graph(), 0.5)
        for op in pruned.ops:
            if isinstance(op, (O.Conv2D, O.Dense)):
                assert op.weight_sparsity == 0.5
            else:
                assert op.weight_sparsity == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_sparsity_bounds(self, bad):
        with pytest.raises(ValueError):
            prune_graph(_conv_bn_relu_graph(), bad)

    def test_structured_flag_recorded(self):
        pruned = prune_graph(_conv_bn_relu_graph(), 0.3, structured=True)
        assert pruned.metadata["structured_pruning"] is True

    def test_zero_sparsity_is_identity_cost(self):
        pruned = prune_graph(_conv_bn_relu_graph(), 0.0)
        conv = next(op for op in pruned.ops if isinstance(op, O.Conv2D))
        assert conv.effective_macs(True) == conv.macs


class TestFreeze:
    def test_dropout_folds_away(self):
        b = GraphBuilder("drop")
        x = b.input((16,))
        x = b.dense(x, 8)
        b.dropout(x)
        frozen = freeze_graph(b.build())
        drop = next(op for op in frozen.ops if isinstance(op, O.Dropout))
        assert drop.is_fused_away

    def test_metadata_flag(self):
        assert freeze_graph(_conv_bn_relu_graph()).metadata["frozen"] is True

    def test_freeze_then_fuse_compose(self):
        b = GraphBuilder("both")
        x = b.input((3, 8, 8))
        x = b.conv_bn_act(x, 4, 3)
        b.dropout(x)
        graph = fuse_graph(freeze_graph(b.build()))
        schedulable = graph.schedulable_ops()
        # Only the conv and nothing else dispatches.
        assert [type(op) for op in schedulable] == [O.Conv2D]


# -- clone, then step; the recipe memo ----------------------------------------


def _deployable_graph():
    """Fusable chains, a dense head and a Dropout, so every step acts."""
    b = GraphBuilder("deployable", metadata={"family": "test"})
    x = b.input((3, 16, 16))
    x = b.conv_bn_act(x, 8, 3)
    x = b.conv_bn_act(x, 8, 3)
    x = b.global_avg_pool(x)
    x = b.dense(x, 10)
    b.dropout(x)
    return b.build()


PUBLIC_TRANSFORMS = {
    "fuse": fuse_graph,
    "freeze": freeze_graph,
    "int8": lambda graph: quantize_graph(graph, DType.INT8),
    "binary": lambda graph: quantize_graph(graph, DType.BINARY),
    "prune": lambda graph: prune_graph(graph, 0.5, structured=True),
    "freeze+fuse+int8": lambda graph: quantize_graph(
        fuse_graph(freeze_graph(graph)), DType.INT8),
}


class TestPublicTransformsCloneFirst:
    @pytest.mark.parametrize("label", list(PUBLIC_TRANSFORMS))
    def test_input_untouched_and_nothing_shared(self, label):
        graph = _deployable_graph()
        before = annotations(graph)
        output = PUBLIC_TRANSFORMS[label](graph)
        assert annotations(graph) == before
        assert annotations(output) != before
        assert output is not graph and output.metadata is not graph.metadata
        source_objects = {id(op) for op in graph.ops}
        source_objects |= {id(op.inputs) for op in graph.ops}
        source_objects |= {id(op.absorbed) for op in graph.ops}
        for op in output.ops:
            assert id(op) not in source_objects, op.name
            assert id(op.inputs) not in source_objects, op.name
            assert id(op.absorbed) not in source_objects, op.name

    def test_step_applied_to_a_clone_is_the_public_transform(self):
        steps = {
            "fuse": (fuse_in_place, fuse_graph),
            "freeze": (freeze_in_place, freeze_graph),
        }
        for label, (step, transform) in steps.items():
            graph = _deployable_graph()
            clone = graph.clone()
            step(clone)
            assert annotations(clone) == annotations(transform(graph)), label

    def test_prune_step_validates_sparsity(self):
        with pytest.raises(ValueError):
            prune_in_place(_deployable_graph(), 1.0)


class TestTransformedMemo:
    def test_equal_recipes_share_one_graph(self):
        graph = _deployable_graph()
        first = graph.transformed(((fuse_in_place,), (quantize_in_place, DType.FP16)))
        again = graph.transformed(((fuse_in_place,), (quantize_in_place, DType.FP16)))
        assert first is again
        assert first.table is again.table

    def test_different_recipes_differ(self):
        graph = _deployable_graph()
        outputs = [
            graph.transformed(((fuse_in_place,),)),
            graph.transformed(((fuse_in_place,), (quantize_in_place, DType.FP16))),
            graph.transformed(((fuse_in_place,), (quantize_in_place, DType.INT8))),
            graph.transformed(((quantize_in_place, DType.INT8), (fuse_in_place,))),
        ]
        assert len({id(output) for output in outputs}) == len(outputs)
        assert graph not in outputs

    def test_empty_recipe_is_the_graph_itself(self):
        graph = _deployable_graph()
        assert graph.transformed(()) is graph
        assert graph._recipes is None

    def test_source_untouched(self):
        graph = _deployable_graph()
        before = annotations(graph)
        graph.transformed(((freeze_in_place,), (fuse_in_place,),
                           (quantize_in_place, DType.INT8)))
        assert annotations(graph) == before

    def test_clone_starts_without_a_memo(self):
        graph = _deployable_graph()
        recipe = ((fuse_in_place,),)
        prepared = graph.transformed(recipe)
        clone = graph.clone()
        assert clone._recipes is None
        assert clone.transformed(recipe) is not prepared

    @pytest.mark.parametrize("recipe,chain", [
        (((freeze_in_place,), (fuse_in_place,), (quantize_in_place, DType.INT8)),
         lambda g: quantize_graph(fuse_graph(freeze_graph(g)), DType.INT8)),
        (((fuse_in_place,), (quantize_in_place, DType.FP16)),
         lambda g: quantize_graph(fuse_graph(g), DType.FP16)),
        (((quantize_in_place, DType.FP16), (fuse_in_place,)),
         lambda g: fuse_graph(quantize_graph(g, DType.FP16))),
        (((fuse_in_place,), (quantize_in_place, DType.BINARY)),
         lambda g: quantize_graph(fuse_graph(g), DType.BINARY)),
        (((prune_in_place, 0.5, True),),
         lambda g: prune_graph(g, 0.5, structured=True)),
    ], ids=["tflite", "fuse-fp16", "fp16-fuse", "finn", "prune"])
    def test_recipe_equals_chained_public_transforms(self, recipe, chain):
        graph = _deployable_graph()
        assert annotations(graph.transformed(recipe)) == annotations(chain(graph))

    def test_step_order_shows_in_the_metadata_order(self):
        graph = _deployable_graph()
        fuse_first = graph.transformed(((fuse_in_place,), (quantize_in_place, DType.FP16)))
        quantize_first = graph.transformed(((quantize_in_place, DType.FP16),
                                            (fuse_in_place,)))
        assert list(fuse_first.metadata)[-3:] == ["fused", "weight_dtype", "act_dtype"]
        assert list(quantize_first.metadata)[-3:] == ["weight_dtype", "act_dtype", "fused"]
