"""NVidia TensorRT framework model.

Inference-only engine builder: imports trained models, auto-tunes kernel
selection to the exact GPU, fuses aggressively, and deploys in FP16/INT8
mixed precision.  Produces the paper's best Jetson Nano numbers — an
average 4.1x over PyTorch (Figure 7), with smaller gains on models whose
memory footprint (AlexNet, VGG16) or input volume (C3D, TinyYolo) keeps
them bandwidth-bound.
"""

from __future__ import annotations

from repro.core.quantity import MEBI
from repro.frameworks.base import Framework, FrameworkCapabilities, FrameworkOverheads
from repro.graphs.tensor import DType
from repro.graphs.transforms import fuse_in_place, quantize_in_place
from repro.hardware.compute import ComputeKind


class TensorRT(Framework):
    """Inference-only engine builder: fusion, mixed precision, auto-tuning."""

    name = "TensorRT"
    capabilities = FrameworkCapabilities(
        language="Python",
        industry_backed=True,
        training_framework=False,
        usability=2,
        adding_new_models=2,
        predefined_models=2,
        documentation=1,
        no_extra_steps=True,
        mobile_deployment=False,
        low_level_modifications=1,
        compatibility_with_others=2,  # ONNX import path (Section III-B)
        quantization=True,
        mixed_precision=True,
        dynamic_graph=True,
        pruning_exploit=True,
        fusion=True,
        auto_tuning=True,
        half_precision=True,
    )
    overheads = FrameworkOverheads(
        library_load_s=0.4,
        graph_setup_base_s=2.0,  # engine build + kernel auto-tuning sweep
        graph_setup_per_op_s=5e-3,
        session_base_s=1.5e-5,
        python_per_op_s=1.5e-6,  # fused engine executes as one launch chain
        runtime_memory_bytes=120 * MEBI,
        weight_memory_factor=1.2,
    )
    target_kinds = (ComputeKind.GPU,)
    deploy_dtypes = (DType.FP16, DType.INT8)
    kernel_quality = {ComputeKind.GPU: 0.40}
    depthwise_efficiency = 0.5  # auto-tuned depthwise kernels

    def graph_transforms(self, dtype):
        """Engine build: fuse, then calibrate to mixed precision."""
        return ((fuse_in_place,), (quantize_in_place, dtype))
