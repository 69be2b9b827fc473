"""Graph-level optimizations (the Table II feature set).

Each transform comes in two forms.  The in-place step (``fuse_in_place``,
``quantize_in_place``, ``freeze_in_place``, ``prune_in_place``) annotates
the graph it is given; the public transform (``fuse_graph`` and the rest)
applies that step to a fresh :meth:`~repro.graphs.graph.Graph.clone`, so
its input is never mutated.  Frameworks in :mod:`repro.frameworks` name the
steps they apply as a recipe and deploy
:meth:`~repro.graphs.graph.Graph.transformed`, the one shared graph per
(source graph, recipe).
"""

from repro.graphs.transforms.fusion import fuse_graph, fuse_in_place, fusion_ratio
from repro.graphs.transforms.freeze import freeze_graph, freeze_in_place
from repro.graphs.transforms.pruning import prune_graph, prune_in_place
from repro.graphs.transforms.quantization import quantize_graph, quantize_in_place

__all__ = [
    "freeze_graph",
    "freeze_in_place",
    "fuse_graph",
    "fuse_in_place",
    "fusion_ratio",
    "prune_graph",
    "prune_in_place",
    "quantize_graph",
    "quantize_in_place",
]
