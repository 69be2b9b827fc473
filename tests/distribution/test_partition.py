"""Cut-point analysis on real graphs."""

import pytest

from repro.distribution.partition import cut_points, narrowest_cut
from repro.frameworks import load_framework
from repro.graphs import GraphBuilder
from repro.graphs.transforms import fuse_graph
from repro.hardware import load_device
from repro.models import list_models, load_model
from tests.distribution.reference import reference_cut_points


class TestLinearChain:
    def _chain(self):
        b = GraphBuilder("chain")
        x = b.input((1, 4, 4))  # 64 B
        x = b.conv2d(x, 2, 1, use_bias=False)  # out 128 B
        x = b.conv2d(x, 4, 1, use_bias=False)  # out 256 B
        return b.build()

    def test_cut_count(self):
        graph = self._chain()
        assert len(cut_points(graph)) == len(graph.schedulable_ops()) + 1

    def test_crossing_bytes_are_single_tensors(self):
        points = cut_points(self._chain())
        assert [p.transfer_bytes for p in points] == [64, 128, 256]

    def test_after_op_labels(self):
        points = cut_points(self._chain())
        assert points[0].after_op == ""
        assert points[1].after_op == "conv_1"


class TestResidualGraph:
    def test_cut_inside_block_ships_both_paths(self):
        b = GraphBuilder("res")
        x = b.input((1, 4, 4))  # 64 B
        branch = b.conv2d(x, 1, 1, use_bias=False)  # 64 B
        branch = b.conv2d(branch, 1, 1, use_bias=False, name="mid")  # 64 B
        b.add(branch, x)
        points = cut_points(b.build())
        # Cut after the first conv: conv output AND the input skip cross.
        assert points[1].transfer_bytes == 128
        # Cut after "mid": mid output AND skip cross.
        assert points[2].transfer_bytes == 128
        # Final cut: only the add output.
        assert points[3].transfer_bytes == 64

    def test_resnet18_cuts_account_for_shortcuts(self):
        graph = load_model("ResNet-18")
        points = cut_points(graph)
        # Transfer sizes inside residual stages exceed the trunk tensor
        # alone at least somewhere.
        trunk_only = graph.op("conv_2").output_bytes()
        inside = [p for p in points if p.transfer_bytes > trunk_only]
        assert inside


class TestFusionInteraction:
    def test_fused_ops_cannot_host_cuts(self):
        graph = load_model("ResNet-18")
        fused = fuse_graph(graph)
        assert len(cut_points(fused)) < len(cut_points(graph))
        names = {p.after_op for p in cut_points(fused)}
        bn_names = {op.name for op in fused.ops if op.is_fused_away}
        assert not names & bn_names


class TestNarrowestCut:
    def test_picks_minimum_interior(self):
        graph = load_model("VGG16")
        best = narrowest_cut(graph)
        interior = cut_points(graph)[1:-1]
        assert best.transfer_bytes == min(p.transfer_bytes for p in interior)

    def test_vgg_narrowest_is_deep(self):
        """VGG's activations shrink monotonically: the narrowest interior
        point sits in the classifier, far from the input."""
        graph = load_model("VGG16")
        best = narrowest_cut(graph)
        total = len(graph.schedulable_ops())
        assert best.index > total // 2

    def test_chain_too_short(self):
        b = GraphBuilder("short")
        x = b.input((4,))
        b.relu(x)
        with pytest.raises(ValueError, match="interior"):
            narrowest_cut(b.build())


class TestMatchesQuadraticReference:
    """The linear sweep reproduces the per-cut rescan on the whole zoo."""

    @pytest.mark.parametrize("model", list_models())
    def test_built_graph(self, model):
        graph = load_model(model)
        assert cut_points(graph) == reference_cut_points(graph)

    @pytest.mark.parametrize("model", list_models())
    def test_fused_tensorrt_deployment(self, model):
        graph = load_framework("TensorRT").deploy(
            load_model(model), load_device("Jetson Nano")).graph
        assert cut_points(graph) == reference_cut_points(graph)
