"""Pipeline partitioning across a chain of edge devices.

The authors' collaborative-robots line of work distributes one DNN across
several resource-constrained devices stage-by-stage and streams inputs
through the pipeline.  Steady-state throughput is set by the slowest stage
(compute plus its outgoing transfer), so the partitioner minimizes the
bottleneck over all contiguous stage assignments via dynamic programming.

Since the :class:`~repro.placement.deployment.Deployment` refactor this
module is a *lowering rule*: :func:`lower_pipeline` runs the partitioner
over a chain of scenarios and emits a servable multi-stage Deployment;
:class:`PipelinePlan` remains as its scenario-free projection
(:func:`as_pipeline_plan` recovers the plan from the deployment exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.distribution.network import NetworkLink, resolve_link
from repro.distribution.split import _open_side, _prefix_latency, _session_plan
from repro.frameworks.base import DeployedModel
from repro.placement.deployment import Deployment, StageSpec

if TYPE_CHECKING:
    from collections.abc import Sequence

    from numpy.typing import ArrayLike

    from repro.engine.executor import ExecutionPlan
    from repro.graphs.graph import Graph
    from repro.runtime.runner import Runner
    from repro.runtime.scenario import Scenario

#: End columns per DP table block: each (start x end) table holds at most
#: (N + 1) x 64 floats, however many ops the graph schedules.
_BLOCK = 64


@dataclass(frozen=True)
class PipelineStage:
    """One device's share of the pipeline."""

    device_index: int
    op_names: tuple[str, ...]
    compute_s: float
    outgoing_transfer_s: float

    @property
    def stage_s(self) -> float:
        return self.compute_s + self.outgoing_transfer_s


@dataclass(frozen=True)
class PipelinePlan:
    """A full pipeline assignment."""

    stages: tuple[PipelineStage, ...]

    @property
    def bottleneck_s(self) -> float:
        return max(stage.stage_s for stage in self.stages)

    @property
    def throughput_fps(self) -> float:
        return 1.0 / self.bottleneck_s

    @property
    def pipeline_latency_s(self) -> float:
        """End-to-end latency of one input through all stages."""
        return sum(stage.stage_s for stage in self.stages)

    def describe(self) -> str:
        lines = [f"{len(self.stages)}-stage pipeline: "
                 f"{self.throughput_fps:.2f} inferences/s "
                 f"(bottleneck {self.bottleneck_s * 1e3:.1f} ms, "
                 f"end-to-end {self.pipeline_latency_s * 1e3:.1f} ms)"]
        for stage in self.stages:
            lines.append(
                f"  device {stage.device_index}: {len(stage.op_names)} ops, "
                f"compute {stage.compute_s * 1e3:.1f} ms, "
                f"send {stage.outgoing_transfer_s * 1e3:.1f} ms"
            )
        return "\n".join(lines)


def _partition(schedulable: list[str], prefixes: "Sequence[ArrayLike]",
               transfer_at: ArrayLike) -> PipelinePlan:
    """The chain-partitioning DP behind every entry point.

    Device ``d`` prices its ops with ``prefixes[d]``; ``transfer_at[k]``
    ships the cut after ``k`` ops.  Per device, each candidate
    ``max(best[start], compute + outgoing)`` is one cell of a (start x end)
    table built ``_BLOCK`` end columns at a time; ``argmin`` down a column
    keeps the smallest start among ties, like a scalar loop's strict ``<``.
    """
    n = len(schedulable)
    num_devices = len(prefixes)
    # Only the last stage ends at n, and it returns nothing.
    outgoing = np.append(transfer_at[:n], 0.0)
    invalid = np.tri(_BLOCK, dtype=bool)  # start >= end inside a block
    best = np.full(n + 1, np.inf)  # best[k]: minimal bottleneck over k ops
    best[0] = 0.0
    choices = []
    for d, prefix in enumerate(prefixes, start=1):
        prefix = np.asarray(prefix)
        # Every device takes at least one op: device d starts at d - 1 or
        # later and leaves one op to each device after it.
        row, last_end = d - 1, n - (num_devices - d)
        new_best = np.full(n + 1, np.inf)
        choice = np.full(n + 1, -1)
        for lo in range(n if d == num_devices else d, last_end + 1, _BLOCK):
            hi = min(lo + _BLOCK, last_end + 1)
            width = hi - lo
            table = np.maximum(
                best[row:hi - 1, None],
                (prefix[None, lo:hi] - prefix[row:hi - 1, None])
                + outgoing[None, lo:hi])
            table[lo - row:][invalid[:width - 1, :width]] = np.inf
            starts = table.argmin(axis=0)
            new_best[lo:hi] = table[starts, np.arange(width)]
            choice[lo:hi] = starts + row
        best = new_best
        choices.append(choice)
    if best[n] == np.inf:
        raise ValueError("no feasible partition found")

    boundaries = [n]
    for choice in reversed(choices):
        boundaries.append(int(choice[boundaries[-1]]))
    boundaries.reverse()
    return PipelinePlan(stages=tuple(
        PipelineStage(
            device_index=d,
            op_names=tuple(schedulable[boundaries[d]:boundaries[d + 1]]),
            compute_s=float(prefix[boundaries[d + 1]] - prefix[boundaries[d]]),
            outgoing_transfer_s=(0.0 if d == num_devices - 1
                                 else float(transfer_at[boundaries[d + 1]])))
        for d, prefix in enumerate(prefixes)))


def _chain_schedule(graphs: "Sequence[Graph]") -> list[str]:
    """The op schedule every deployed graph of one pipeline chain shares."""
    names = {graph.name for graph in graphs}
    if len(names) != 1:
        raise ValueError(f"all deployments must share one model, got {sorted(names)}")
    schedulable = [op.name for op in graphs[0].schedulable_ops()]
    for graph in graphs[1:]:
        other = [op.name for op in graph.schedulable_ops()]
        if other != schedulable:
            raise ValueError(
                "deployments disagree on the op schedule (mixed frameworks "
                "with different fusion are not pipeline-compatible)")
    return schedulable


def _pipeline(schedulable: list[str], plans: "Sequence[ExecutionPlan]",
              cut_bytes: np.ndarray, link: NetworkLink) -> PipelinePlan:
    """Partition one schedule over the devices whose plans are given:
    each device's prefix is one ``cumsum`` of its plan's latencies, each
    cut's transfer is priced from the graph's crossing sizes."""
    n = len(schedulable)
    if len(plans) > n:
        raise ValueError(f"cannot spread {n} ops over {len(plans)} devices")
    return _partition(schedulable, [_prefix_latency(plan) for plan in plans],
                      link.transfer_time_s(cut_bytes))


def partition_pipeline_heterogeneous(deployments: list[DeployedModel],
                                     link: NetworkLink) -> PipelinePlan:
    """Pipeline one model across an ORDERED list of different devices.

    Each entry of ``deployments`` is the same source model deployed on the
    device that will run that pipeline position (robot teams are rarely
    uniform).  The DP minimizes the bottleneck stage, where a stage's
    compute time uses its own device's per-op timings.
    """
    if not deployments:
        raise ValueError("need at least one deployment")
    return _pipeline(_chain_schedule([d.graph for d in deployments]),
                     [_session_plan(d) for d in deployments],
                     deployments[0].graph.table.cut_bytes, link)


def partition_pipeline(deployed: DeployedModel, num_devices: int,
                       link: NetworkLink) -> PipelinePlan:
    """Minimize the pipeline bottleneck over contiguous stage assignments.

    Dynamic program over (ops consumed, devices used): classic chain
    partitioning with N schedulable ops, each device's O(N^2) candidates
    evaluated as blocked NumPy tables (see :func:`_partition`).
    """
    if num_devices < 1:
        raise ValueError(f"need at least one device, got {num_devices}")
    schedulable = [op.name for op in deployed.graph.schedulable_ops()]
    return _pipeline(schedulable, [_session_plan(deployed)] * num_devices,
                     deployed.graph.table.cut_bytes, link)


# -- lowering to Deployments -------------------------------------------------

def lower_pipeline(scenarios: "Sequence[Scenario]", link: NetworkLink | str, *,
                   runner: "Runner | None" = None) -> Deployment:
    """Lower an ordered chain of scenarios to a pipelined Deployment.

    Partitions the chain over the plans of the scenarios' own runner
    sessions (one per device position, so heterogeneous chains are fine)
    and attaches the per-device pricing — active power, idle power,
    session init — a served stage needs.  The :func:`as_pipeline_plan`
    projection of the result equals
    :func:`partition_pipeline_heterogeneous` over the same deployments
    exactly.
    """
    link = resolve_link(link)
    scenarios = list(scenarios)
    if len(scenarios) < 2:
        raise ValueError("a pipeline needs at least two scenarios")
    if runner is None:
        from repro.runtime.runner import default_runner
        runner = default_runner()
    # A chain often repeats a scenario (n identical devices): one session
    # per distinct scenario prices every position that runs it.
    opened = {scenario: _open_side(scenario, runner)
              for scenario in dict.fromkeys(scenarios)}
    sides = [opened[scenario] for scenario in scenarios]
    bytes_at = sides[0].graph.table.cut_bytes
    plan = _pipeline(_chain_schedule([side.graph for side in sides]),
                     [side.plan for side in sides], bytes_at, link)
    stages = []
    consumed = 0
    last = len(scenarios) - 1
    for position, (side, stage) in enumerate(zip(sides, plan.stages)):
        consumed += len(stage.op_names)
        stages.append(StageSpec(
            scenario=side.scenario,
            op_names=stage.op_names,
            compute_s=stage.compute_s,
            transfer_s=stage.outgoing_transfer_s,
            transfer_bytes=0 if position == last else int(bytes_at[consumed]),
            **side.pricing,
        ))
    return Deployment(kind="pipeline", link=link.name, stages=tuple(stages))


def as_pipeline_plan(deployment: Deployment) -> PipelinePlan:
    """Project a pipelined deployment back onto its :class:`PipelinePlan`.

    Inverse of :func:`lower_pipeline`:
    ``as_pipeline_plan(lower_pipeline(chain, link))`` equals the
    partitioner's plan exactly (dataclass equality, zero float tolerance).
    """
    if deployment.kind != "pipeline":
        raise ValueError(
            f"expected a pipeline deployment, got {deployment.kind!r}")
    return PipelinePlan(stages=tuple(
        PipelineStage(device_index=position,
                      op_names=stage.op_names or (),
                      compute_s=stage.compute_s,
                      outgoing_transfer_s=stage.transfer_s)
        for position, stage in enumerate(deployment.stages)))
