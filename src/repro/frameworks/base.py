"""Framework abstraction.

A :class:`Framework` turns a zoo graph into a :class:`DeployedModel` on a
device: it selects the compute unit, applies the graph optimizations it
actually implements (Table II), picks the deployment datatype, plans memory
(including the dynamic-graph paging fallback of Table V), and resolves its
software-stack overheads scaled to the target CPU's speed.

The numbers in ``FrameworkOverheads`` are *reference-core* costs (one
desktop-class core); the deployment scales them by how much slower the
device's cores are, which is what makes framework overhead dominate on the
Raspberry Pi but not on a Xeon (Figure 5).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import CompatibilityError, IncompatibleModelError, OutOfMemoryError
from repro.core.quantity import MEBI
from repro.graphs import Graph
from repro.graphs.graph import Recipe
from repro.graphs.table import KERNEL_STREAMING, OpTable
from repro.graphs.tensor import DType
from repro.graphs.transforms import fuse_in_place, quantize_in_place
from repro.hardware.compute import ComputeKind, ComputeUnit
from repro.hardware.device import Device, DeviceCategory

_INT64_MAX = np.iinfo(np.int64).max

# Single-core MAC/s of the reference desktop core the overhead constants
# were expressed against (2.2 GHz x 16 MACs/cycle AVX2).
_REFERENCE_CORE_MACS_PER_S = 35.2e9


@dataclass(frozen=True)
class FrameworkCapabilities:
    """Table II, one row per field group.

    Star ratings are integers 1-3 exactly as the paper prints them.
    """

    language: str = "Python"
    industry_backed: bool = True
    training_framework: bool = True
    usability: int = 2
    adding_new_models: int = 2
    predefined_models: int = 2
    documentation: int = 2
    no_extra_steps: bool = True
    mobile_deployment: bool = False
    low_level_modifications: int = 1
    compatibility_with_others: int = 1
    # Optimizations block:
    quantization: bool = False
    mixed_precision: bool = False
    dynamic_graph: bool = False
    pruning_exploit: bool = False
    fusion: bool = False
    auto_tuning: bool = False
    half_precision: bool = False


@dataclass(frozen=True)
class FrameworkOverheads:
    """Software-stack costs at reference-core speed (seconds).

    One-time costs (library load, graph setup, weight load) are excluded
    from the paper's timed inference loop (Section V) but appear in the
    profiler output; per-inference costs are part of every latency.
    """

    library_load_s: float = 0.5
    graph_setup_base_s: float = 0.05
    graph_setup_per_op_s: float = 1e-4
    session_base_s: float = 1e-4  # per-inference fixed entry cost
    python_per_op_s: float = 2e-5  # per-op dispatch above the kernel launch
    runtime_memory_bytes: int = 150 * MEBI  # resident interpreter + runtime
    # Deployment-time multiplier on weight bytes (checkpoint + live copies,
    # allocator fragmentation); drives the Table V memory failures.
    weight_memory_factor: float = 1.2
    # One-time GPU context creation + per-parameter staging glue (the
    # ``_C._TensorBase.to()`` bucket of Figure 5c); zero for CPU-only runs.
    gpu_staging_base_s: float = 0.0


@dataclass
class DeployedModel:
    """A model compiled/prepared for one (framework, device) pair.

    ``graph`` is shared: every deployment of one source graph through the
    same transform recipe holds the same prepared graph (the source graph
    itself for an empty recipe), so never mutate it.
    """

    framework: "Framework"
    device: Device
    graph: Graph
    unit: ComputeUnit
    weight_dtype: DType
    act_dtype: DType
    storage_mode: str = "resident"  # "resident" | "paged" | "fabric_spill"
    exploit_sparsity: bool = False
    cpu_scale: float = 1.0
    notes: list[str] = field(default_factory=list)
    #: set by :func:`repro.engine.cache.cached_deploy` on deployments it owns;
    #: sessions over such deployments share plan-cache entries.  Deployments
    #: built directly (and therefore free to be mutated) stay None and are
    #: never plan-cached.
    cache_key: tuple | None = None

    @property
    def is_paged(self) -> bool:
        return self.storage_mode == "paged"

    def weight_bytes(self) -> int:
        """Total weight bytes of the deployed graph (from its op table)."""
        return self.graph.weight_bytes()

    def peak_activation_bytes(self) -> int:
        """Peak live activation bytes of the deployed graph (from its op table)."""
        return self.graph.peak_activation_bytes()

    def footprint_bytes(self) -> int:
        over = self.framework.overheads
        return int(
            over.runtime_memory_bytes
            + over.weight_memory_factor * self.weight_bytes()
            + self.peak_activation_bytes()
        )

    # -- resolved overheads (device-scaled seconds) ----------------------
    @property
    def library_load_s(self) -> float:
        return self.framework.overheads.library_load_s * self.cpu_scale

    @property
    def graph_setup_s(self) -> float:
        over = self.framework.overheads
        per_op = over.graph_setup_per_op_s * len(self.graph.ops)
        setup = (over.graph_setup_base_s + per_op) * self.cpu_scale
        if self.framework.capabilities.dynamic_graph:
            # Dynamic graphs defer construction to run time (Figure 5a).
            setup *= 0.1
        if self.graph.metadata.get("frozen"):
            setup *= 0.5  # variables already constants, no initializer pass
        return setup

    @property
    def weight_load_s(self) -> float:
        """One-time weight read from backing store at setup."""
        return self.weight_bytes() / self.device.memory.storage_bandwidth_bytes_per_s

    @property
    def transfer_setup_s(self) -> float:
        """One-time host-to-accelerator weight copy (``model.to(device)``)."""
        if self.device.transfer is None:
            return 0.0
        return self.device.transfer.transfer_time_s(self.weight_bytes())

    @property
    def device_staging_s(self) -> float:
        """One-time GPU context init + weight staging into device space.

        Present even on shared-memory Jetson boards: unified memory still
        pays context creation and per-parameter copies, which is why
        ``.to()`` dominates the PyTorch TX2 profile (Figure 5c).
        """
        from repro.hardware.compute import ComputeKind

        if self.unit.kind is not ComputeKind.GPU:
            return 0.0
        copy_s = self.weight_bytes() / (self.device.memory.bandwidth_bytes_per_s / 2)
        return self.framework.overheads.gpu_staging_base_s * self.cpu_scale + copy_s

    @property
    def session_overhead_s(self) -> float:
        return self.framework.overheads.session_base_s * self.cpu_scale

    @property
    def per_op_overhead_s(self) -> float:
        return self.framework.overheads.python_per_op_s * self.cpu_scale

    def describe(self) -> str:
        return (
            f"{self.graph.name} via {self.framework.name} on {self.device.name} "
            f"[{self.unit.kind.value}, {self.weight_dtype.value}, {self.storage_mode}]"
        )


class Framework(abc.ABC):
    """Base class for the studied DNN frameworks."""

    name: str = "framework"
    capabilities: FrameworkCapabilities = FrameworkCapabilities()
    overheads: FrameworkOverheads = FrameworkOverheads()
    #: compute-unit preference order on a device.
    target_kinds: tuple[ComputeKind, ...] = (ComputeKind.GPU, ComputeKind.CPU)
    #: datatypes the framework will deploy with, best first.
    deploy_dtypes: tuple[DType, ...] = (DType.FP32,)
    #: fraction of a unit's peak that this framework's kernels reach,
    #: keyed by compute kind; refined per op by :meth:`kernel_efficiencies`.
    kernel_quality: dict[ComputeKind, float] = {
        ComputeKind.CPU: 0.2,
        ComputeKind.GPU: 0.2,
    }
    #: relative efficiency of special op classes (depthwise convolutions
    #: are the canonical CPU sore spot, Section VI-A's MobileNet anomaly).
    depthwise_efficiency: float = 0.3
    conv3d_efficiency: float = 0.8
    #: batch-norm kernel quality relative to conv quality (unfused BN).
    norm_efficiency: float = 0.5
    #: recurrent-layer kernel maturity relative to conv quality.
    recurrent_efficiency: float = 0.6
    #: (half-saturation MACs, exponent) of the op-size efficiency curve per
    #: unit kind: kernels on parallel units only approach peak when an op
    #: carries enough work (VGG-scale convolutions), which is why VGG gains
    #: more than ResNet from HPC GPUs (Section VI-C) and why MobileNet-v2
    #: underperforms its MAC count everywhere.  For CPUs the half point
    #: additionally scales with core count — a 44-core Xeon is far harder to
    #: fill with one small single-batch convolution than a 4-core A53,
    #: which reproduces the paper's "CPUs are not beneficial for
    #: single-batch inferencing" finding.
    size_saturation: dict[ComputeKind, tuple[float, float]] = {
        ComputeKind.GPU: (6e8, 0.5),
        ComputeKind.CPU: (4.5e6, 1.0),  # per core
        ComputeKind.ASIC: (2e7, 0.5),
        ComputeKind.VPU: (2e7, 0.5),
        ComputeKind.FPGA: (2e7, 0.5),
    }

    # ------------------------------------------------------------------
    def deploy(self, graph: Graph, device: Device, dtype: DType | None = None) -> DeployedModel:
        """Prepare ``graph`` for execution on ``device``.

        Raises the Table V failure taxonomy: :class:`CompatibilityError`,
        :class:`IncompatibleModelError`, :class:`ConversionError`,
        :class:`OutOfMemoryError`.
        """
        if not device.supports_framework(self.name):
            raise CompatibilityError(
                f"{device.name} only runs {device.supported_frameworks}, not {self.name}"
            )
        unit = self.select_unit(device)
        self.check_model_support(graph, device, unit)
        weight_dtype = dtype or unit.best_dtype(self.deploy_dtypes)
        act_dtype = weight_dtype if weight_dtype is not DType.BINARY else DType.INT8
        deployed = DeployedModel(
            framework=self,
            device=device,
            graph=graph.transformed(self.graph_transforms(weight_dtype)),
            unit=unit,
            weight_dtype=weight_dtype,
            act_dtype=act_dtype,
            exploit_sparsity=self.capabilities.pruning_exploit,
            cpu_scale=self.cpu_scale(device),
        )
        self.plan_memory(deployed)
        return deployed

    # -- deployment steps (overridable) ---------------------------------
    def select_unit(self, device: Device) -> ComputeUnit:
        for kind in self.target_kinds:
            if device.has_unit(kind):
                return device.unit(kind)
        raise CompatibilityError(
            f"{self.name} needs one of {[k.value for k in self.target_kinds]} "
            f"units; {device.name} has none"
        )

    def check_model_support(self, graph: Graph, device: Device, unit: ComputeUnit) -> None:
        """Model/platform gates shared by every framework.

        SSD drags in an image-processing library with no ARM32 build, which
        is the paper's Raspberry Pi code-incompatibility (Table V).
        """
        if graph.metadata.get("extra_image_library") and device.category is DeviceCategory.EDGE_CPU:
            raise IncompatibleModelError(
                f"{graph.name} requires an image-processing library unavailable "
                f"on {device.name} (Table V, code incompatibility)"
            )

    def graph_transforms(self, dtype: DType) -> Recipe:
        """The optimizations this framework applies (Table II), in order.

        A recipe for :meth:`Graph.transformed`, so every deployment of one
        graph through the same recipe shares one prepared graph: it depends
        on the deployment datatype only, never on the device.
        """
        steps: Recipe = ()
        if dtype is not DType.FP32:
            steps += ((quantize_in_place, dtype),)
        if self.capabilities.fusion:
            steps += ((fuse_in_place,),)
        return steps

    def plan_memory(self, deployed: DeployedModel) -> None:
        footprint = deployed.footprint_bytes()
        usable = deployed.device.memory.usable_bytes
        if footprint <= usable:
            return
        if self.capabilities.dynamic_graph:
            deployed.storage_mode = "paged"
            deployed.notes.append(
                f"footprint {footprint / MEBI:.0f} MiB exceeds usable "
                f"{usable / MEBI:.0f} MiB; dynamic graph pages weights per inference"
            )
            return
        raise OutOfMemoryError(
            f"{deployed.graph.name} needs {footprint / MEBI:.0f} MiB but "
            f"{deployed.device.name} offers {usable / MEBI:.0f} MiB and "
            f"{self.name} uses a static graph",
            required_bytes=footprint,
            available_bytes=usable,
        )

    # -- engine hooks -----------------------------------------------------
    def kernel_efficiencies(self, table: OpTable, positions: np.ndarray,
                            unit: ComputeUnit, graph: Graph | None = None,
                            batch_size: int = 1) -> np.ndarray:
        """Fraction of ``unit`` peak this framework reaches on each op.

        One float64 entry per op of ``table`` at ``positions``.  Each op's
        kernel quality is derated by a saturating size factor (small ops
        cannot fill a parallel unit; ``batch_size`` enlarges the work per
        kernel, which is how multi-batch inference rescues wide platforms,
        Section VI-C) and by its kernel class's relative efficiency.
        Recurrent layers pay a framework-level RNN maturity factor on top
        of the size factor, whose ``parallel_macs`` already exposes one
        timestep at a time; unfused batch-norm pays framework-quality costs
        (the visible batch_norm slice of Figure 5a).  Streaming kernels
        (activations, pooling, elementwise) are framework-independent and
        bounded by memory in practice.  ``graph`` gives model-level
        metadata to frameworks whose kernel quality depends on the model
        family (NCSDK hand-tuning).

        Every step is elementwise in the order of the per-op formula, so
        the results are bit-identical to it; the power stays a Python
        ``**`` per op, whose rounding NumPy's vector ``power`` need not
        match.
        """
        kernels = table.kernels
        half, exponent = self.size_saturation.get(unit.kind, (2e7, 0.5))
        if unit.kind is ComputeKind.CPU:
            half *= unit.cores
        work = kernels.parallel_macs[positions]
        if work.size and work.max() > _INT64_MAX // batch_size:
            work = work.astype(object)  # keep the product exact past int64
        work = np.maximum(work * batch_size, 1).astype(np.float64)
        fill = work / (work + half)
        size = np.array([share ** exponent for share in fill.tolist()],
                        dtype=np.float64)
        kind = kernels.kernel_class[positions]
        # Indexed by kernel class, in the order of the KERNEL_* codes.
        relative = np.array((1.0, self.depthwise_efficiency, self.conv3d_efficiency,
                             self.recurrent_efficiency, self.norm_efficiency, 1.0))
        base = self.kernel_quality.get(unit.kind, 0.15) * size * relative[kind]
        streaming = np.maximum(0.35 * size, 1e-4)
        return np.where(kind == KERNEL_STREAMING, streaming, base)

    def cpu_scale(self, device: Device) -> float:
        """How much slower framework bookkeeping runs on this device's CPU."""
        try:
            cpu = device.unit(ComputeKind.CPU)
        except ValueError:
            return 1.0
        return max(1.0, _REFERENCE_CORE_MACS_PER_S / cpu.per_core_macs_per_s)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
