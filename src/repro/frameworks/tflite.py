"""TensorFlow-Lite framework model.

TFLite requires extra deployment steps (conversion, freezing, quantization)
and pays them back with a frozen, fused, quantized graph executed by a flat
interpreter.  On the Raspberry Pi the INT8 kernels reduce memory traffic but
the Cortex-A53 gains no compute throughput from them (Section VI-B2); on
the EdgeTPU the converter only accepts models with quantization-aware
training checkpoints — the Table V conversion barriers.
"""

from __future__ import annotations

from repro.core.errors import ConversionError
from repro.core.quantity import MEBI
from repro.frameworks.base import Framework, FrameworkCapabilities, FrameworkOverheads
from repro.graphs.tensor import DType
from repro.graphs.transforms import freeze_in_place, fuse_in_place, quantize_in_place
from repro.hardware.compute import ComputeKind


class TFLite(Framework):
    """Frozen/fused/quantized flat interpreter for mobile and IoT targets."""

    name = "TFLite"
    capabilities = FrameworkCapabilities(
        language="Python",
        industry_backed=True,
        training_framework=False,
        usability=1,
        adding_new_models=1,
        predefined_models=1,
        documentation=1,
        no_extra_steps=False,
        mobile_deployment=True,
        low_level_modifications=1,
        compatibility_with_others=1,
        quantization=True,
        mixed_precision=False,
        dynamic_graph=False,
        pruning_exploit=True,
        fusion=True,
        auto_tuning=False,
        half_precision=True,
    )
    overheads = FrameworkOverheads(
        library_load_s=0.25,
        graph_setup_base_s=0.05,
        graph_setup_per_op_s=4e-4,
        session_base_s=2e-5,
        python_per_op_s=2.5e-6,  # flat interpreter loop, no Python dispatch
        runtime_memory_bytes=60 * MEBI,
        weight_memory_factor=1.05,  # frozen flatbuffer is mapped, not copied
    )
    target_kinds = (ComputeKind.ASIC, ComputeKind.CPU)
    deploy_dtypes = (DType.INT8,)
    kernel_quality = {ComputeKind.CPU: 0.25, ComputeKind.ASIC: 0.25}
    depthwise_efficiency = 0.35  # hand-written NEON depthwise kernels

    def check_model_support(self, graph, device, unit) -> None:
        super().check_model_support(graph, device, unit)
        if unit.kind is ComputeKind.ASIC and not graph.metadata.get("qat_available", False):
            raise ConversionError(
                f"{graph.name}: the EdgeTPU compiler only accepts quantized models, "
                "and post-training quantization does not produce a compatible "
                "TFLite flatbuffer for this network (Table V, Section VI-A)"
            )

    def graph_transforms(self, dtype):
        """The full TFLite conversion pipeline: freeze, fuse, quantize."""
        return ((freeze_in_place,), (fuse_in_place,), (quantize_in_place, dtype))
