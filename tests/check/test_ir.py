"""Graph pass, structural rules: every zoo graph/transform is clean; seeded
defects report their stable IR rule ids."""

import pytest

from repro.check import graphs
from repro.graphs.tensor import DType
from repro.graphs.transforms import freeze_graph, fuse_graph, prune_graph, quantize_graph
from repro.models import list_models
from tests.check.graph_cases import rules_of, seeded, tiny_graph, zoo_findings


def ir_rules(defect):
    return rules_of(graphs.verify_graph(seeded(defect)))


class TestZooIsClean:
    @pytest.mark.parametrize("model_name", list_models())
    def test_model_and_every_transform_verify_clean(self, model_name):
        assert [f for f in zoo_findings(model_name) if f.rule.startswith("IR")] == []


class TestSeededGraphDefects:
    def test_clean_graph_has_no_findings(self):
        assert graphs.verify_graph(tiny_graph()) == []

    def test_ir001_out_of_order_dataflow(self):
        assert "IR001" in ir_rules("out_of_order_dataflow")

    def test_ir001_parent_outside_graph(self):
        assert "IR001" in ir_rules("parent_outside_graph")

    def test_ir002_duplicate_name(self):
        assert "IR002" in ir_rules("duplicate_name")

    def test_ir003_missing_input(self):
        assert "IR003" in ir_rules("missing_input")

    def test_ir004_corrupted_shape(self):
        assert "IR004" in ir_rules("corrupted_shape")

    def test_ir005_non_dtype_annotation(self):
        assert "IR005" in ir_rules("non_dtype_annotation")

    def test_ir006_negative_params(self):
        assert "IR006" in ir_rules("negative_params")

    def test_ir006_sparsity_out_of_range(self):
        assert "IR006" in ir_rules("sparsity_out_of_range")

    def test_ir007_fusion_without_backlink(self):
        assert "IR007" in ir_rules("fusion_without_backlink")

    def test_ir008_zero_byte_traffic(self):
        assert "IR008" in ir_rules("zero_byte_traffic")

    def test_ir008_overflowing_macs(self):
        assert "IR008" in ir_rules("overflowing_macs")


class TestSeededTransformDefects:
    def test_clean_transforms_have_no_findings(self):
        assert graphs.verify_transforms(tiny_graph()) == []

    def test_ir101_fusion_changed_macs(self):
        base = tiny_graph()
        fused = fuse_graph(base)
        fused.op("conv_1").macs += 7
        assert "IR101" in rules_of(graphs.verify_transform("fuse", base, fused))

    def test_ir101_fusion_dropped_an_op(self):
        base = tiny_graph()
        fused = fuse_graph(base)
        fused.ops.pop()
        assert "IR101" in rules_of(graphs.verify_transform("fuse", base, fused))

    def test_ir102_pruning_grew_params(self):
        base = tiny_graph()
        pruned = prune_graph(base, sparsity=0.5)
        pruned.op("dense_1").params += 10
        assert "IR102" in rules_of(graphs.verify_transform("prune", base, pruned))

    def test_ir103_non_uniform_quantization(self):
        base = tiny_graph()
        quantized = quantize_graph(base, DType.INT8)
        quantized.op("conv_1").weight_dtype = DType.FP32
        assert "IR103" in rules_of(
            graphs.verify_transform("quantize", base, quantized))

    def test_ir104_dropout_survived_freeze(self):
        base = tiny_graph()
        frozen = freeze_graph(base)
        dropout = frozen.op("dropout_1")
        dropout.fused_into = None
        assert "IR104" in rules_of(graphs.verify_transform("freeze", base, frozen))

    def test_unknown_transform_kind_raises(self):
        base = tiny_graph()
        with pytest.raises(ValueError, match="unknown transform kind"):
            graphs.verify_transform("distill", base, base)


class TestRunEntryPoint:
    def test_selected_models_only(self):
        assert graphs.run(models=["CifarNet 32x32"]) == []

    def test_findings_carry_graph_locations(self):
        graph = tiny_graph()
        graph.op("conv_1").params = -1
        finding = graphs.verify_graph(graph)[0]
        assert finding.location == "graph:TinyNet/conv_1"
