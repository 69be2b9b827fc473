"""Deployment pipeline behaviour across frameworks and devices."""

import pytest

from repro.core.errors import (
    CompatibilityError,
    ConversionError,
    IncompatibleModelError,
    OutOfMemoryError,
    ReproError,
)
from repro.frameworks import list_frameworks, load_framework
from repro.frameworks.base import Framework, FrameworkCapabilities
from repro.graphs.graph import Graph
from repro.graphs.tensor import DType
from repro.graphs.transforms import freeze_graph, fuse_graph, quantize_graph
from repro.hardware import ComputeKind, list_devices, load_device
from repro.models import load_model
from tests.graphs.reference import annotations


class TestUnitSelection:
    def test_gpu_frameworks_prefer_gpu(self, tx2):
        deployed = load_framework("PyTorch").deploy(load_model("ResNet-18"), tx2)
        assert deployed.unit.kind is ComputeKind.GPU

    def test_cpu_fallback_on_rpi(self, rpi):
        deployed = load_framework("PyTorch").deploy(load_model("ResNet-18"), rpi)
        assert deployed.unit.kind is ComputeKind.CPU

    def test_tensorrt_requires_gpu(self, rpi):
        with pytest.raises(CompatibilityError, match="gpu"):
            load_framework("TensorRT").deploy(load_model("ResNet-18"), rpi)

    def test_tflite_targets_edgetpu_asic(self, edgetpu):
        deployed = load_framework("TFLite").deploy(load_model("MobileNet-v2"), edgetpu)
        assert deployed.unit.kind is ComputeKind.ASIC

    def test_locked_platform_rejects_other_frameworks(self, edgetpu):
        with pytest.raises(CompatibilityError, match="only runs"):
            load_framework("PyTorch").deploy(load_model("MobileNet-v2"), edgetpu)


class TestDtypeSelection:
    def test_tflite_quantizes_to_int8(self, rpi):
        deployed = load_framework("TFLite").deploy(load_model("ResNet-18"), rpi)
        assert deployed.weight_dtype is DType.INT8

    def test_ncsdk_uses_fp16(self, movidius):
        deployed = load_framework("NCSDK").deploy(load_model("MobileNet-v2"), movidius)
        assert deployed.weight_dtype is DType.FP16

    def test_tensorrt_picks_fastest_supported(self, nano):
        deployed = load_framework("TensorRT").deploy(load_model("ResNet-18"), nano)
        assert deployed.weight_dtype is DType.FP16  # Maxwell: fp16 2x, no int8 gain

    def test_finn_binarizes(self, pynq):
        deployed = load_framework("FINN").deploy(load_model("CifarNet 32x32"), pynq)
        assert deployed.weight_dtype is DType.BINARY
        assert deployed.act_dtype is DType.INT8

    def test_explicit_dtype_override(self, tx2):
        deployed = load_framework("PyTorch").deploy(load_model("ResNet-18"), tx2,
                                                    dtype=DType.FP16)
        assert deployed.weight_dtype is DType.FP16


class TestGraphPreparation:
    def test_tflite_freezes_fuses_quantizes(self, rpi):
        deployed = load_framework("TFLite").deploy(load_model("ResNet-18"), rpi)
        assert deployed.graph.metadata.get("frozen")
        assert deployed.graph.metadata.get("fused")
        assert deployed.graph.metadata.get("weight_dtype") == "int8"

    def test_tensorflow_runs_plain_graph(self, rpi):
        deployed = load_framework("TensorFlow").deploy(load_model("ResNet-18"), rpi)
        assert not deployed.graph.metadata.get("fused")

    @pytest.mark.parametrize("framework_name", ["TensorFlow", "Keras"])
    def test_tensorflow_quantizes_below_fp32_without_fusing(self, tx2,
                                                            framework_name):
        graph = load_model("ResNet-18")
        framework = load_framework(framework_name)
        fp32 = framework.deploy(graph, tx2)
        fp16 = framework.deploy(graph, tx2, dtype=DType.FP16)
        assert fp32.weight_bytes() == 46_758_048
        assert fp16.weight_bytes() == 23_379_024
        assert fp16.weight_bytes() == load_framework("PyTorch").deploy(
            graph, tx2, dtype=DType.FP16).weight_bytes()
        assert fp32.graph is graph
        assert not fp16.graph.metadata.get("fused")

    def test_tensorrt_fuses(self, nano):
        deployed = load_framework("TensorRT").deploy(load_model("ResNet-18"), nano)
        assert deployed.graph.metadata.get("fused")

    def test_zoo_graph_never_mutated(self, rpi):
        graph = load_model("ResNet-18")
        load_framework("TFLite").deploy(graph, rpi)
        assert graph.op("conv_1").weight_dtype is DType.FP32


def _chain_fuse_quantize(graph, dtype):
    return quantize_graph(fuse_graph(graph), dtype)


def _chain_base(graph, dtype):
    return graph if dtype is DType.FP32 else quantize_graph(graph, dtype)


#: each framework's preparation as a chain of the public transforms.
PREPARATION_CHAINS = {
    "TFLite": lambda graph, dtype: quantize_graph(
        fuse_graph(freeze_graph(graph)), dtype),
    "TensorRT": _chain_fuse_quantize,
    "NCSDK": _chain_fuse_quantize,
    "TVM VTA": _chain_fuse_quantize,
    "FINN": lambda graph, dtype: _chain_fuse_quantize(graph, DType.BINARY),
    "PyTorch": _chain_base,
    "Caffe": _chain_base,
    "DarkNet": _chain_base,
    "TensorFlow": _chain_base,
    "Keras": _chain_base,
}


class _FusingFramework(Framework):
    """The base recipe with fusion on: quantize first, then fuse."""

    name = "fusing"
    capabilities = FrameworkCapabilities(fusion=True)


class TestSharedPreparedGraphs:
    def test_chains_cover_every_framework(self):
        assert set(PREPARATION_CHAINS) == set(list_frameworks())

    @pytest.mark.parametrize("framework_name", sorted(PREPARATION_CHAINS))
    @pytest.mark.parametrize("dtype", [DType.FP32, DType.FP16, DType.INT8])
    def test_recipe_equals_chained_public_transforms(self, framework_name, dtype):
        graph = load_model("MobileNet-v2")
        recipe = load_framework(framework_name).graph_transforms(dtype)
        expected = PREPARATION_CHAINS[framework_name](graph, dtype)
        assert annotations(graph.transformed(recipe)) == annotations(expected)

    def test_base_recipe_quantizes_before_fusing(self):
        graph = load_model("MobileNet-v2")
        recipe = _FusingFramework().graph_transforms(DType.INT8)
        expected = fuse_graph(quantize_graph(graph, DType.INT8))
        assert annotations(graph.transformed(recipe)) == annotations(expected)

    def test_one_clone_per_recipe_across_devices(self, monkeypatch):
        graph = load_model("ResNet-18")
        cloned = []
        clone = Graph.clone

        def counting_clone(self):
            cloned.append(self)
            return clone(self)

        monkeypatch.setattr(Graph, "clone", counting_clone)
        tensorrt = load_framework("TensorRT")
        deployments = []
        for device_name in list_devices():
            try:
                deployments.append(tensorrt.deploy(graph, load_device(device_name),
                                                   dtype=DType.FP16))
            except ReproError:
                continue
        assert len(deployments) >= 3
        assert cloned == [graph]
        assert all(deployed.graph is deployments[0].graph for deployed in deployments)
        assert all(deployed.graph.table is deployments[0].graph.table
                   for deployed in deployments)

    def test_frameworks_with_one_recipe_share_the_graph(self, nano, movidius, pynq):
        graph = load_model("ResNet-18")
        tensorrt, ncsdk = load_framework("TensorRT"), load_framework("NCSDK")
        assert (tensorrt.deploy(graph, nano, dtype=DType.FP16).graph
                is ncsdk.deploy(graph, movidius).graph)
        assert (tensorrt.deploy(graph, nano, dtype=DType.INT8).graph
                is load_framework("TVM VTA").deploy(graph, pynq).graph)

    @pytest.mark.parametrize("framework_name",
                             ["PyTorch", "Caffe", "DarkNet", "TensorFlow"])
    def test_empty_recipe_deploys_the_zoo_graph(self, tx2, framework_name):
        graph = load_model("ResNet-18")
        assert load_framework(framework_name).deploy(graph, tx2).graph is graph


class TestMemoryPlanning:
    def test_static_graph_oom_on_rpi(self, rpi):
        with pytest.raises(OutOfMemoryError) as excinfo:
            load_framework("TensorFlow").deploy(load_model("VGG16"), rpi)
        assert excinfo.value.required_bytes > excinfo.value.available_bytes

    def test_dynamic_graph_pages_instead(self, rpi):
        deployed = load_framework("PyTorch").deploy(load_model("VGG16"), rpi)
        assert deployed.storage_mode == "paged"
        assert deployed.notes  # explains the fallback

    @pytest.mark.parametrize("model_name", ["AlexNet", "VGG16", "C3D"])
    def test_table5_diamond_models_page_on_rpi(self, rpi, model_name):
        deployed = load_framework("PyTorch").deploy(load_model(model_name), rpi)
        assert deployed.storage_mode == "paged"

    @pytest.mark.parametrize("model_name", ["ResNet-50", "ResNet-101", "Inception-v4"])
    def test_medium_models_stay_resident_on_rpi(self, rpi, model_name):
        for framework_name in ("TensorFlow", "PyTorch"):
            deployed = load_framework(framework_name).deploy(load_model(model_name), rpi)
            assert deployed.storage_mode == "resident", (framework_name, model_name)

    def test_everything_resident_on_tx2(self, tx2):
        for model_name in ("VGG16", "C3D", "AlexNet"):
            deployed = load_framework("PyTorch").deploy(load_model(model_name), tx2)
            assert deployed.storage_mode == "resident"


class TestModelGates:
    def test_ssd_incompatible_on_rpi(self, rpi):
        with pytest.raises(IncompatibleModelError, match="image-processing"):
            load_framework("TensorFlow").deploy(load_model("SSD MobileNet-v1"), rpi)

    def test_ssd_fine_on_tx2(self, tx2):
        load_framework("PyTorch").deploy(load_model("SSD MobileNet-v1"), tx2)

    def test_c3d_rejected_by_ncsdk(self, movidius):
        with pytest.raises(IncompatibleModelError, match="3-D convolution"):
            load_framework("NCSDK").deploy(load_model("C3D"), movidius)

    def test_edgetpu_conversion_barrier_without_qat(self, edgetpu):
        with pytest.raises(ConversionError, match="quantized"):
            load_framework("TFLite").deploy(load_model("ResNet-18"), edgetpu)

    def test_edgetpu_accepts_qat_models(self, edgetpu):
        for model_name in ("ResNet-50", "MobileNet-v2", "Inception-v4", "VGG16"):
            load_framework("TFLite").deploy(load_model(model_name), edgetpu)

    def test_tflite_on_rpi_has_no_qat_gate(self, rpi):
        # The conversion barrier is EdgeTPU-compiler specific: plain CPU
        # TFLite accepts post-training quantization.
        load_framework("TFLite").deploy(load_model("ResNet-18"), rpi)

    def test_darknet_lacks_complex_models(self, tx2):
        with pytest.raises(IncompatibleModelError, match="DarkNet"):
            load_framework("DarkNet").deploy(load_model("Inception-v4"), tx2)

    def test_darknet_runs_its_own_models(self, tx2):
        for model_name in ("YOLOv3", "TinyYolo", "ResNet-50", "AlexNet"):
            load_framework("DarkNet").deploy(load_model(model_name), tx2)

    def test_finn_needs_binarized_checkpoints(self, pynq):
        with pytest.raises(ConversionError, match="binarized"):
            load_framework("FINN").deploy(load_model("VGG16"), pynq)

    def test_vta_spills_unported_models(self, pynq):
        deployed = load_framework("TVM VTA").deploy(load_model("ResNet-50"), pynq)
        assert deployed.storage_mode == "fabric_spill"

    def test_vta_runs_resnet18_clean(self, pynq):
        deployed = load_framework("TVM VTA").deploy(load_model("ResNet-18"), pynq)
        assert deployed.storage_mode == "resident"


class TestOverheadScaling:
    def test_cpu_scale_larger_on_slower_cores(self, rpi, tx2):
        framework = load_framework("PyTorch")
        assert framework.cpu_scale(rpi) > framework.cpu_scale(tx2) > 1.0

    def test_xeon_is_the_reference(self):
        framework = load_framework("PyTorch")
        assert framework.cpu_scale(load_device("Xeon")) == pytest.approx(1.0)

    def test_overheads_scale_with_device(self, rpi, tx2):
        framework = load_framework("TensorFlow")
        slow = framework.deploy(load_model("ResNet-18"), rpi)
        fast = framework.deploy(load_model("ResNet-18"), tx2)
        assert slow.library_load_s > fast.library_load_s
        assert slow.graph_setup_s > fast.graph_setup_s

    def test_describe_mentions_everything(self, tx2):
        deployed = load_framework("PyTorch").deploy(load_model("ResNet-18"), tx2)
        text = deployed.describe()
        assert "ResNet-18" in text and "PyTorch" in text and "Jetson TX2" in text
