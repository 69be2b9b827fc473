"""Distributed edge inference.

The paper's related-work section centers on distributing DNN inference:
Neurosurgeon's cloud-edge split and the authors' own collaborative
model-parallelism across IoT devices/robots.  This package builds that
substrate on the engine: network link models, graph cut-point analysis,
a Neurosurgeon-style split planner, and a pipeline partitioner for chains
of edge devices.

The planners double as *lowering rules*: :func:`lower_split` and
:func:`lower_pipeline` emit :class:`~repro.placement.deployment.Deployment`
objects the fleet can price and serve, while :class:`SplitPlan` and
:class:`PipelinePlan` remain as their scenario-free projections
(:func:`as_split_plan` / :func:`as_pipeline_plan`).
"""

from repro.distribution.network import (
    LINK_PRESETS,
    REQUIRED_LINK_PRESETS,
    NetworkLink,
    load_link,
    resolve_link,
)
from repro.distribution.partition import CutPoint, cut_points, narrowest_cut
from repro.distribution.pipeline import (
    PipelinePlan,
    PipelineStage,
    as_pipeline_plan,
    lower_pipeline,
    partition_pipeline,
    partition_pipeline_heterogeneous,
)
from repro.distribution.split import (
    CutColumns,
    SplitPlan,
    SplitPlanner,
    as_split_plan,
    cut_columns,
    lower_split,
    split_deployments,
)

__all__ = [
    "CutColumns",
    "CutPoint",
    "LINK_PRESETS",
    "NetworkLink",
    "PipelinePlan",
    "PipelineStage",
    "REQUIRED_LINK_PRESETS",
    "SplitPlan",
    "SplitPlanner",
    "as_pipeline_plan",
    "as_split_plan",
    "cut_columns",
    "cut_points",
    "load_link",
    "lower_pipeline",
    "lower_split",
    "narrowest_cut",
    "partition_pipeline",
    "partition_pipeline_heterogeneous",
    "resolve_link",
    "split_deployments",
]
