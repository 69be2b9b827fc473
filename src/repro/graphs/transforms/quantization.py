"""Weight/activation quantization.

Post-training quantization rewrites the datatype annotations of every op;
quantization-aware deployments (EdgeTPU via TFLite) additionally require the
model to advertise QAT support — that gate lives in the framework layer and
reproduces the paper's EdgeTPU conversion barriers (Table V, Section VI-A).
"""

from __future__ import annotations

from repro.graphs.graph import Graph
from repro.graphs.tensor import DType


def quantize_in_place(graph: Graph, weight_dtype: DType,
                      act_dtype: DType | None = None) -> None:
    """Give every op of ``graph`` the requested datatypes (mutates it).

    ``act_dtype`` defaults as in :func:`quantize_graph`.
    """
    if act_dtype is None:
        act_dtype = DType.INT8 if weight_dtype is DType.BINARY else weight_dtype
    for op in graph.ops:
        op.weight_dtype = weight_dtype
        op.act_dtype = act_dtype
    graph.metadata["weight_dtype"] = weight_dtype.value
    graph.metadata["act_dtype"] = act_dtype.value


def quantize_graph(graph: Graph, weight_dtype: DType, act_dtype: DType | None = None) -> Graph:
    """Return a clone whose ops carry the requested datatypes.

    Args:
        graph: source graph (not modified).
        weight_dtype: storage/compute type for parameters.
        act_dtype: activation type; defaults to ``weight_dtype`` except for
            binary weights, where activations stay INT8 (FINN-style).
    """
    quantized = graph.clone()
    quantize_in_place(quantized, weight_dtype, act_dtype)
    return quantized
