"""Caffe / Caffe2 framework model.

A C++ static-graph engine from 2013: low per-op overhead, decent CPU and
GPU kernels that aged with its CUDA backend — the paper finds it faster
than TensorFlow on the Jetson TX2 for everything except MobileNet-v2
(Figure 4), whose depthwise convolutions Caffe implements naively.
"""

from __future__ import annotations

import numpy as np

from repro.core.quantity import MEBI
from repro.frameworks.base import Framework, FrameworkCapabilities, FrameworkOverheads
from repro.graphs.tensor import DType
from repro.hardware.compute import ComputeKind


class Caffe(Framework):
    """C++ static-graph engine from 2013 with aging CUDA kernels."""

    name = "Caffe"
    capabilities = FrameworkCapabilities(
        language="Python",
        industry_backed=True,
        training_framework=True,
        usability=2,
        adding_new_models=3,
        predefined_models=2,
        documentation=1,
        no_extra_steps=True,
        mobile_deployment=False,
        low_level_modifications=2,
        compatibility_with_others=1,
        quantization=True,
        mixed_precision=False,
        dynamic_graph=False,
        pruning_exploit=False,
        fusion=False,
        auto_tuning=False,
        half_precision=True,
    )
    overheads = FrameworkOverheads(
        library_load_s=0.35,
        graph_setup_base_s=0.3,  # prototxt parse + layer setup
        graph_setup_per_op_s=1.5e-3,
        session_base_s=5e-5,
        python_per_op_s=6e-6,  # C++ net->Forward(), minimal Python
        runtime_memory_bytes=140 * MEBI,
        weight_memory_factor=1.3,
    )
    target_kinds = (ComputeKind.GPU, ComputeKind.CPU)
    deploy_dtypes = (DType.FP32,)
    kernel_quality = {ComputeKind.CPU: 0.16, ComputeKind.GPU: 0.16}
    depthwise_efficiency = 0.35  # BLAS-backed CPU path is adequate...

    def check_model_support(self, graph, device, unit) -> None:
        from repro.core.errors import IncompatibleModelError

        super().check_model_support(graph, device, unit)
        if graph.metadata.get("recurrent"):
            raise IncompatibleModelError(
                f"{graph.name}: stock Caffe deployments ship no recurrent layers"
            )

    def kernel_efficiencies(self, table, positions, unit, graph=None, batch_size=1):
        """...but the CUDA grouped-convolution loop is the MobileNet sore
        spot the paper observes on the TX2 (Figure 4): depthwise efficiency
        collapses on the GPU only."""
        efficiencies = super().kernel_efficiencies(table, positions, unit, graph,
                                                   batch_size)
        if unit.kind is ComputeKind.GPU:
            collapsed = efficiencies * (0.03 / self.depthwise_efficiency)
            efficiencies = np.where(table.kernels.depthwise[positions], collapsed,
                                    efficiencies)
        return efficiencies
