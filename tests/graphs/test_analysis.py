"""Graph analysis: intensities and liveness timelines."""

import pytest

from repro.graphs.analysis import (
    bound_split,
    intensity_profile,
    liveness_timeline,
    op_intensity,
    peak_location,
    ridge_point,
)
from repro.graphs.transforms import fuse_graph
from repro.models import list_models, load_model


class TestIntensity:
    def test_conv_intensity_positive(self):
        graph = load_model("ResNet-18")
        entry = op_intensity(graph.op("conv_1"))
        assert entry.intensity > 0
        assert entry.macs == graph.op("conv_1").macs

    def test_vgg_fc_is_memory_bound_everywhere(self):
        """VGG16's fc6 moves ~400 MB for ~100 MMACs: intensity < 1."""
        graph = load_model("VGG16")
        fc = next(e for e in intensity_profile(graph) if e.op_type == "Dense")
        assert fc.intensity < 1.0

    def test_big_convs_are_compute_bound(self):
        graph = load_model("VGG16")
        convs = [e for e in intensity_profile(graph) if e.op_type == "Conv2D"]
        assert max(e.intensity for e in convs) > 100

    def test_bound_classification_against_ridge(self):
        entry = op_intensity(load_model("VGG16").op("conv_5"))
        assert entry.bound_on(1.0) == "compute"
        assert entry.bound_on(1e9) == "memory"

    def test_profile_covers_schedulable_ops(self):
        graph = load_model("ResNet-18")
        assert len(intensity_profile(graph)) == len(graph.schedulable_ops())


class TestRidge:
    def test_ridge_point(self):
        assert ridge_point(100e9, 10e9) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            ridge_point(0, 10)

    def test_bound_split_sums_to_one(self):
        compute, memory = bound_split(load_model("ResNet-50"), 333e9, 35e9)
        assert compute + memory == pytest.approx(1.0)

    def test_faster_device_more_memory_bound(self):
        """Raising peak at fixed bandwidth pushes MACs left of the ridge."""
        graph = load_model("ResNet-50")
        slow_compute, _ = bound_split(graph, 10e9, 35e9)
        fast_compute, _ = bound_split(graph, 10e12, 35e9)
        assert fast_compute < slow_compute

    def test_vgg_traffic_is_classifier_dominated(self):
        """Section VI-C's 'memory-bounded VGG' is a BYTES story, not a MAC
        one: the three Dense layers own most of VGG16's data movement,
        while ResNet-50 moves almost everything through convolutions."""
        def dense_byte_share(model_name):
            profile = intensity_profile(load_model(model_name))
            total = sum(e.bytes_moved for e in profile)
            dense = sum(e.bytes_moved for e in profile if e.op_type == "Dense")
            return dense / total

        assert dense_byte_share("VGG16") > 0.5
        assert dense_byte_share("ResNet-50") < 0.1


class TestLiveness:
    @pytest.mark.parametrize("model_name", list_models())
    def test_timeline_max_equals_peak(self, model_name):
        """The docstring's contract, zoo-wide, as built and fused."""
        base = load_model(model_name)
        for graph in (base, fuse_graph(base)):
            timeline = liveness_timeline(graph)
            assert (max(s.live_bytes for s in timeline)
                    == graph.peak_activation_bytes())

    def test_fused_timeline_consistent_too(self):
        graph = fuse_graph(load_model("ResNet-18"))
        timeline = liveness_timeline(graph)
        assert max(s.live_bytes for s in timeline) == graph.peak_activation_bytes()
        names = {s.op_name for s in timeline}
        assert not any(op.name in names for op in graph.ops if op.is_fused_away)

    def test_vgg_peak_is_early(self):
        """VGG's 224x224x64 features put the peak in the first block."""
        graph = load_model("VGG16")
        op_name, _bytes = peak_location(graph)
        order = [op.name for op in graph.ops]
        assert order.index(op_name) < len(order) // 4

    def test_peak_location_matches_timeline(self):
        graph = load_model("ResNet-50")
        op_name, peak_bytes = peak_location(graph)
        timeline = liveness_timeline(graph)
        assert any(s.op_name == op_name and s.live_bytes == peak_bytes
                   for s in timeline)

    def test_liveness_never_negative(self):
        for model_name in ("Inception-v4", "YOLOv3"):
            timeline = liveness_timeline(load_model(model_name))
            assert all(s.live_bytes > 0 for s in timeline)
