"""Parameter sweeps: batch size, weight sparsity, and datatype.

Each sweep returns a :class:`ResultTable` in the harness format, so the
extension benchmarks and examples render them like the paper's figures.
All cells run through the shared :class:`repro.runtime.Runner`, so
deployment failures arrive as failure records (rendered "-") and every
deployment shares the engine memo cache.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.quantity import MEBI
from repro.core.result import ResultTable
from repro.engine.cache import cached_graph
from repro.graphs.tensor import DType
from repro.graphs.transforms import prune_graph
from repro.runtime import Scenario, default_runner

DEFAULT_BATCHES = (1, 2, 4, 8, 16, 32, 64)

_RUNNER = default_runner()


def batch_size_sweep(
    model_name: str,
    device_names: Sequence[str],
    framework_name: str = "PyTorch",
    batches: Sequence[int] = DEFAULT_BATCHES,
) -> ResultTable:
    """Per-inference latency vs batch size across devices.

    Quantifies Section VI-C's thesis: HPC platforms are throughput
    machines — their advantage over edge devices grows with batch size,
    and the single-batch regime is where edge silicon competes.
    """
    table = ResultTable(
        f"Extension: per-inference latency (ms) of {model_name} vs batch size",
        [f"batch {b}" for b in batches],
        caption="'-' marks batches whose activations exceed device memory.",
    )
    for device_name in device_names:
        cells = {}
        for batch in batches:
            record = _RUNNER.run(
                Scenario(model_name, device_name, framework_name, batch_size=batch),
                use_timer=False)
            cells[f"batch {batch}"] = (
                None if record.failed else record.model_latency_s * 1e3)
        table.add_row(device_name, **cells)
    return table


def sparsity_sweep(
    model_name: str,
    device_name: str,
    framework_names: Sequence[str] = ("TensorFlow", "PyTorch"),
    sparsities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
) -> ResultTable:
    """Latency vs weight sparsity per framework.

    Table II's pruning row in action: every framework stores a pruned
    model, but only the exploiters (TensorFlow, TFLite, TensorRT) convert
    sparsity into speed.  Pruned graphs are explicit inputs, so these
    deployments bypass the memo cache by construction.
    """
    table = ResultTable(
        f"Extension: {model_name} on {device_name}, latency (ms) vs pruned sparsity",
        [f"{s:.0%} sparse" for s in sparsities],
        caption="Frameworks without sparse kernels stay flat across the row "
        "(Table II, 'Pruning').",
    )
    # prune_graph and deploy both clone their input, so one source graph and
    # one pruned graph per sparsity can be shared across every framework.
    source = cached_graph(model_name)
    pruned = {sparsity: prune_graph(source, sparsity) for sparsity in sparsities}
    for framework_name in framework_names:
        cells = {}
        for sparsity in sparsities:
            graph = pruned[sparsity]
            record = _RUNNER.run(
                Scenario(model_name, device_name, framework_name),
                use_timer=False, graph=graph)
            cells[f"{sparsity:.0%} sparse"] = (
                None if record.failed else record.model_latency_s * 1e3)
        table.add_row(framework_name, **cells)
    return table


def dtype_sweep(
    model_name: str,
    device_name: str,
    framework_name: str,
    dtypes: Sequence[DType] = (DType.FP32, DType.FP16, DType.INT8),
) -> ResultTable:
    """Latency and weight footprint per deployment datatype."""
    table = ResultTable(
        f"Extension: {model_name} on {device_name} via {framework_name}, per datatype",
        ["latency_ms", "weights_mib"],
    )
    for dtype in dtypes:
        record = _RUNNER.run(
            Scenario(model_name, device_name, framework_name, dtype=dtype),
            use_timer=False)
        if record.failed:
            table.add_row(dtype.value, latency_ms=None, weights_mib=None)
            continue
        table.add_row(
            dtype.value,
            latency_ms=record.model_latency_s * 1e3,
            weights_mib=record.plan.weight_bytes / MEBI,
        )
    return table
