"""FPGA frameworks for the PYNQ board: TVM VTA and FINN (Section III-A.9).

TVM VTA deploys an INT8 GEMM overlay and JIT-compiles models onto it; only
the tuned ResNet-18 port runs at speed — everything else spills to host
DDR3 through the overlay and slows down severely (Table V's double-caret
entries and footnote 5).  FINN deploys binarized-weight dataflow pipelines
and therefore only accepts models with retrained binary checkpoints
(CifarNet, ResNet-18).
"""

from __future__ import annotations

from repro.core.errors import ConversionError
from repro.core.quantity import MEBI
from repro.frameworks.base import Framework, FrameworkCapabilities, FrameworkOverheads
from repro.graphs.tensor import DType
from repro.graphs.transforms import fuse_in_place, quantize_in_place
from repro.hardware.compute import ComputeKind

# Models with a tuned VTA port whose parameters match the hardware spec
# (per the paper's footnote about VTA-compatible code); everything else
# spills through the overlay.
_VTA_PORTED = ("ResNet-18", "CifarNet 32x32")


class TVMVTA(Framework):
    """TVM JIT onto the VTA INT8 GEMM overlay; only ported models run well."""

    name = "TVM VTA"
    capabilities = FrameworkCapabilities(
        language="Python",
        industry_backed=True,
        training_framework=False,
        usability=1,
        adding_new_models=1,
        predefined_models=1,
        documentation=2,
        no_extra_steps=False,
        mobile_deployment=False,
        low_level_modifications=3,
        compatibility_with_others=1,
        quantization=True,
        mixed_precision=False,
        dynamic_graph=False,
        pruning_exploit=False,
        fusion=True,
        auto_tuning=True,
        half_precision=False,
    )
    overheads = FrameworkOverheads(
        library_load_s=0.6,
        graph_setup_base_s=3.0,  # JIT compile + overlay (bitstream) load
        graph_setup_per_op_s=4e-3,
        session_base_s=1e-4,
        python_per_op_s=5e-6,
        runtime_memory_bytes=80 * MEBI,
        weight_memory_factor=1.1,
    )
    target_kinds = (ComputeKind.FPGA,)
    deploy_dtypes = (DType.INT8,)
    kernel_quality = {ComputeKind.FPGA: 0.5}
    depthwise_efficiency = 0.2  # GEMM overlay maps depthwise poorly

    def graph_transforms(self, dtype):
        return ((fuse_in_place,), (quantize_in_place, dtype))

    def deploy(self, graph, device, dtype=None):
        deployed = super().deploy(graph, device, dtype)
        if graph.metadata.get("zoo_name", graph.name) not in _VTA_PORTED:
            deployed.storage_mode = "fabric_spill"
            deployed.notes.append(
                f"{graph.name} has no tuned VTA port: layer tiles spill to host "
                "DDR3 through the overlay, a severe slowdown (Table V)"
            )
        return deployed


class FINN(Framework):
    """Binarized dataflow pipelines; needs retrained binary checkpoints."""

    name = "FINN"
    capabilities = FrameworkCapabilities(
        language="Python",
        industry_backed=False,
        training_framework=False,
        usability=1,
        adding_new_models=1,
        predefined_models=1,
        documentation=1,
        no_extra_steps=False,
        mobile_deployment=False,
        low_level_modifications=3,
        compatibility_with_others=1,
        quantization=True,
        mixed_precision=False,
        dynamic_graph=False,
        pruning_exploit=False,
        fusion=True,
        auto_tuning=False,
        half_precision=False,
    )
    overheads = FrameworkOverheads(
        library_load_s=0.6,
        graph_setup_base_s=2.0,
        graph_setup_per_op_s=2e-3,
        session_base_s=5e-5,
        python_per_op_s=2e-6,  # one dataflow pipeline invocation
        runtime_memory_bytes=60 * MEBI,
        weight_memory_factor=1.0,  # weights live in BRAM after configuration
    )
    target_kinds = (ComputeKind.FPGA,)
    deploy_dtypes = (DType.BINARY,)
    kernel_quality = {ComputeKind.FPGA: 0.4}

    def check_model_support(self, graph, device, unit) -> None:
        super().check_model_support(graph, device, unit)
        if not graph.metadata.get("finn_binarized_available", False):
            raise ConversionError(
                f"{graph.name}: FINN requires retrained binarized weights, "
                "which only exist for its published small models (Section VI-A)"
            )

    def graph_transforms(self, dtype):
        return ((fuse_in_place,), (quantize_in_place, DType.BINARY))
