"""TensorFlow framework model.

Static computational graph; graph construction (the ``base_layer`` bucket of
Figure 5b/d) is a large one-time cost; the C++ executor keeps per-op
dispatch modest.  GPU kernel quality is deliberately mediocre: the paper
finds TensorFlow "significantly low on small GPUs" and attributes it to the
static-graph overhead and hard-to-reach optimization flags (Section VI-B1).
"""

from __future__ import annotations

from repro.core.quantity import MEBI
from repro.frameworks.base import Framework, FrameworkCapabilities, FrameworkOverheads
from repro.graphs.tensor import DType
from repro.graphs.transforms import quantize_in_place
from repro.hardware.compute import ComputeKind


class TensorFlow(Framework):
    """Static-graph engine; strong CPU kernels, weak small-GPU performance."""

    name = "TensorFlow"
    capabilities = FrameworkCapabilities(
        language="Python",
        industry_backed=True,
        training_framework=True,
        usability=3,
        adding_new_models=2,
        predefined_models=3,
        documentation=2,
        no_extra_steps=True,
        mobile_deployment=False,
        low_level_modifications=2,
        compatibility_with_others=1,
        quantization=True,
        mixed_precision=False,
        dynamic_graph=False,
        pruning_exploit=True,  # experimental implementation (Table II)
        fusion=True,  # experimental implementation (Table II)
        auto_tuning=False,
        half_precision=True,
    )
    overheads = FrameworkOverheads(
        library_load_s=0.9,
        graph_setup_base_s=2.0,
        graph_setup_per_op_s=4.5e-2,
        session_base_s=2.5e-4,
        python_per_op_s=1.1e-5,
        runtime_memory_bytes=330 * MEBI,
        weight_memory_factor=1.3,
        gpu_staging_base_s=1.5,  # CUDA context init inside session setup
    )
    target_kinds = (ComputeKind.GPU, ComputeKind.CPU)
    deploy_dtypes = (DType.FP32,)
    kernel_quality = {ComputeKind.CPU: 0.25, ComputeKind.GPU: 0.10}
    depthwise_efficiency = 0.12  # unoptimized CPU depthwise kernels

    def graph_transforms(self, dtype):
        """TensorFlow's fusion sits behind experimental flags (Table II's
        dagger mark); the out-of-the-box deployment the paper measured runs
        the plain static graph, so the only transform is quantization to a
        non-FP32 deployment datatype."""
        return () if dtype is DType.FP32 else ((quantize_in_place, dtype),)
