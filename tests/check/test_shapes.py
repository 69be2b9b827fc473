"""Graph pass, derivation rules: the zoo re-derives cleanly; seeded defects
pin every SHAPE rule id; symbolic summaries match their golden snapshots."""

from pathlib import Path

import pytest

from repro.check import graphs
from repro.check.shape_rules import TransferError, apply_transfer
from repro.graphs.graph import GraphBuilder
from repro.graphs.symbolic import dim
from repro.graphs.tensor import DType, TensorShape
from repro.graphs.transforms import fuse_graph
from repro.models import list_models, load_model
from tests.check.graph_cases import (
    recurrent_graph,
    rules_of,
    seeded,
    tiny_graph,
    zoo_findings,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "data"


class TestZooIsClean:
    @pytest.mark.parametrize("model_name", list_models())
    def test_model_and_every_transform_derive_clean(self, model_name):
        assert [f for f in zoo_findings(model_name)
                if f.rule.startswith("SHAPE")] == []

    def test_clean_recurrent_graph_has_no_findings(self):
        assert graphs.verify_graph(recurrent_graph()) == []


class TestSeededDefects:
    def test_shape001_stored_shape_disagrees_with_derived(self):
        graph = tiny_graph()
        graph.op("conv_1").output_shape = TensorShape(4, 7, 7)
        findings = graphs.verify_graph(graph)
        assert "SHAPE001" in rules_of(findings)
        assert any(f.location == "graph:TinyNet/conv_1" for f in findings)

    def test_shape002_dtype_break_without_cast(self):
        graph = seeded("dtype_break_across_edge")
        assert "SHAPE002" in rules_of(graphs.verify_graph(graph))

    def test_shape002_binary_weights_need_quantized_activations(self):
        graph = tiny_graph()
        graph.op("conv_1").weight_dtype = DType.BINARY
        assert "SHAPE002" in rules_of(graphs.verify_graph(graph))

    def test_shape003_add_inputs_disagree(self):
        builder = GraphBuilder("Residual")
        x = builder.input((4, 8, 8))
        a = builder.conv2d(x, 4, 3, name="conv_a")
        b = builder.conv2d(x, 4, 3, stride=2, name="conv_b")
        add = builder.add(a, a, name="add_1")
        builder.relu(add)
        graph = builder.build()
        graph.op("add_1").inputs = (a, b)  # (4,8,8) meets (4,4,4)
        assert "SHAPE003" in rules_of(graphs.verify_graph(graph))

    def test_shape004_reshape_loses_elements(self):
        builder = GraphBuilder("ReshapeNet")
        x = builder.input((4, 8, 8))
        x = builder.reshape(x, (4, 64), name="reshape_1")
        builder.flatten(x)
        graph = builder.build()
        graph.op("reshape_1").output_shape = TensorShape(4, 63)
        assert "SHAPE004" in rules_of(graphs.verify_graph(graph))

    def test_shape005_macs_off_by_one(self):
        graph = tiny_graph()
        graph.op("conv_1").macs += 1
        assert "SHAPE005" in rules_of(graphs.verify_graph(graph))

    def test_shape005_params_disagree(self):
        graph = tiny_graph()
        graph.op("dense_1").params -= 3
        assert "SHAPE005" in rules_of(graphs.verify_graph(graph))

    def test_shape006_groups_do_not_divide_channels(self):
        graph = tiny_graph()
        graph.op("conv_1").groups = 3  # out_channels = 4
        assert "SHAPE006" in rules_of(graphs.verify_graph(graph))

    def test_shape006_kernel_overruns_input(self):
        graph = tiny_graph()
        conv = graph.op("conv_1")
        conv.kernel = (11, 11)
        conv.padding = "valid"
        assert "SHAPE006" in rules_of(graphs.verify_graph(graph))

    def test_shape007_dense_bakes_in_the_sequence_length(self):
        # Flattening a (SEQ, H) sequence into a Dense makes the weight
        # matrix depend on SEQ: valid at the stored length, nowhere else.
        graph = recurrent_graph(return_sequences=True)
        findings = graphs.verify_graph(graph)
        assert "SHAPE007" in rules_of(findings)
        assert any("sequence length" in f.message for f in findings)

    def test_shape007_batched_input_must_keep_its_leading_dim(self):
        conv = tiny_graph().op("conv_1")
        with pytest.raises(TransferError) as exc:
            apply_transfer(conv, (TensorShape(3, 8, 8),), batch=dim("N"))
        assert exc.value.rule == "SHAPE007"

    def test_shape008_transform_output_drifts(self):
        base = tiny_graph()
        fused = fuse_graph(base)
        fused.op("conv_1").output_shape = TensorShape(4, 7, 7)
        findings = graphs.verify_transform("fuse", base, fused)
        assert rules_of(findings) == {"SHAPE008"}

    def test_shape008_transform_invents_an_op(self):
        base = tiny_graph()
        fused = fuse_graph(base)
        fused.op("conv_1").name = "conv_ghost"
        assert "SHAPE008" in rules_of(
            graphs.verify_transform("fuse", base, fused))

    def test_broken_graph_reports_each_defect_once(self):
        # The symbolic passes skip concretely-flagged ops, and a failed
        # transfer falls back to the stored shape — one defect, no cascade.
        graph = tiny_graph()
        graph.op("conv_1").groups = 3
        findings = graphs.verify_graph(graph)
        assert [f.rule for f in findings] == ["SHAPE006"]


class TestTransferRegistry:
    def test_unknown_op_class_reports_shape001(self):
        class Mystery:
            pass

        with pytest.raises(TransferError) as exc:
            apply_transfer(Mystery(), ())
        assert exc.value.rule == "SHAPE001"

    def test_shape_transfer_attribute_takes_precedence(self):
        from repro.check.shape_rules import Derived
        from repro.graphs import ops as O

        class Custom(O.Activation):
            @staticmethod
            def shape_transfer(op, inputs):
                return Derived(shape=TensorShape(1))

        source = tiny_graph().op("relu_1")
        op = Custom("custom", [source])
        derived = apply_transfer(op, (TensorShape(4, 8, 8),))
        assert derived.shape.dims == (1,)


class TestGoldenSymbolicSummaries:
    GOLDENS = {
        "CifarNet 32x32": "symbolic_cifarnet.txt",
        "CharRNN-LSTM": "symbolic_charrnn_lstm.txt",
        "SSD MobileNet-v1": "symbolic_ssd_mobilenet_v1.txt",
    }

    @pytest.mark.parametrize("model_name", sorted(GOLDENS))
    def test_summary_matches_snapshot(self, model_name):
        rendered = graphs.render_symbolic_summary(load_model(model_name))
        golden = (GOLDEN_DIR / self.GOLDENS[model_name]).read_text()
        assert rendered == golden
