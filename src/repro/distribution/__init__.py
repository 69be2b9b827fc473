"""Distributed edge inference.

The paper's related-work section centers on distributing DNN inference:
Neurosurgeon's cloud-edge split and the authors' own collaborative
model-parallelism across IoT devices/robots.  This package builds that
substrate on the engine: network link models, graph cut-point analysis,
Neurosurgeon-style split pricing, and a pipeline partitioner for chains
of edge devices.

Splits and pipelines are *lowering rules* with one output type:
:func:`cut_columns` prices every cut of a split as float64 columns, and
:func:`lower_split`, :func:`split_deployments` and :func:`lower_pipeline`
emit :class:`~repro.placement.deployment.Deployment` objects that the
placement optimizer ranks and the fleet prices and serves.
"""

from repro.distribution.network import (
    LINK_PRESETS,
    REQUIRED_LINK_PRESETS,
    NetworkLink,
    load_link,
    resolve_link,
)
from repro.distribution.partition import CutPoint, cut_points, narrowest_cut
from repro.distribution.pipeline import lower_pipeline
from repro.distribution.split import (
    CutColumns,
    cut_columns,
    lower_split,
    split_deployments,
)

__all__ = [
    "CutColumns",
    "CutPoint",
    "LINK_PRESETS",
    "NetworkLink",
    "REQUIRED_LINK_PRESETS",
    "cut_columns",
    "cut_points",
    "load_link",
    "lower_pipeline",
    "lower_split",
    "narrowest_cut",
    "resolve_link",
    "split_deployments",
]
