"""Movidius NCSDK toolkit model.

Compiles models to the Myriad 2 VPU with hand-tuned FP16 kernels and
aggressive fusion.  Because the optimizations are hand-tuned, efficiency is
very uneven across model families: MobileNet-class and C3D-class workloads
run near the device's best, while ResNet-50 and Inception-v4 fall far from
it (Section VI-A); importing anything with 3-D convolutions at all failed
in the paper's hands for the C3D base code (Table V note).
"""

from __future__ import annotations

from repro.core.errors import IncompatibleModelError
from repro.core.quantity import MEBI
from repro.frameworks.base import Framework, FrameworkCapabilities, FrameworkOverheads
from repro.graphs.tensor import DType
from repro.graphs.transforms import fuse_in_place, quantize_in_place
from repro.hardware.compute import ComputeKind

# Hand-tuning quality per model family: 1.0 = fully tuned kernels.  The
# ordering is calibrated against Figure 2's Movidius bars: classic
# large-convolution networks map well onto the SHAVE kernels, while the
# depthwise/1x1-heavy MobileNet family and the multi-branch Inception-v4
# leave the VLIW lanes underfilled.
_FAMILY_TUNING = {
    "mobilenet": 0.55,
    "ssd": 0.6,
    "alexnet": 0.9,
    "vgg": 0.85,
    "yolo": 0.7,
    "resnet": 1.0,
    "inception": 0.75,
}
_DEFAULT_TUNING = 0.7


class NCSDK(Framework):
    """Movidius toolkit: hand-tuned FP16 kernels compiled onto the stick."""

    name = "NCSDK"
    capabilities = FrameworkCapabilities(
        language="Python",
        industry_backed=True,
        training_framework=False,
        usability=1,
        adding_new_models=1,
        predefined_models=1,
        documentation=1,
        no_extra_steps=False,
        mobile_deployment=False,
        low_level_modifications=1,
        compatibility_with_others=1,
        quantization=True,
        mixed_precision=False,
        dynamic_graph=False,
        pruning_exploit=False,
        fusion=True,
        auto_tuning=False,
        half_precision=True,
    )
    overheads = FrameworkOverheads(
        library_load_s=0.3,
        graph_setup_base_s=1.5,  # mvNCCompile + firmware upload over USB
        graph_setup_per_op_s=2e-3,
        session_base_s=2e-4,  # USB command round-trip glue
        python_per_op_s=0.0,  # the compiled blob runs entirely on-stick
        runtime_memory_bytes=20 * MEBI,
        weight_memory_factor=1.1,
    )
    target_kinds = (ComputeKind.VPU,)
    deploy_dtypes = (DType.FP16,)
    kernel_quality = {ComputeKind.VPU: 0.55}
    depthwise_efficiency = 0.8  # SHAVE kernels handle depthwise well

    def check_model_support(self, graph, device, unit) -> None:
        super().check_model_support(graph, device, unit)
        if graph.metadata.get("conv3d"):
            raise IncompatibleModelError(
                f"{graph.name}: the NCSDK compiler rejects the 3-D convolution "
                "base code (Table V, code incompatibility)"
            )
        if graph.metadata.get("recurrent"):
            raise IncompatibleModelError(
                f"{graph.name}: mvNCCompile has no recurrent-layer support"
            )

    def graph_transforms(self, dtype):
        return ((fuse_in_place,), (quantize_in_place, dtype))

    def kernel_efficiencies(self, table, positions, unit, graph=None, batch_size=1):
        base = super().kernel_efficiencies(table, positions, unit, graph, batch_size)
        return base * self.tuning_quality(graph)

    @staticmethod
    def tuning_quality(graph) -> float:
        """Hand-tuning quality for the model family (1.0 = fully tuned)."""
        if graph is None:
            return _DEFAULT_TUNING
        return _FAMILY_TUNING.get(graph.metadata.get("family", ""), _DEFAULT_TUNING)

    def deploy(self, graph, device, dtype=None):
        deployed = super().deploy(graph, device, dtype)
        deployed.notes.append(
            f"hand-tuning quality {self.tuning_quality(graph):.2f} for "
            f"family {graph.metadata.get('family', 'unknown')!r}"
        )
        return deployed
