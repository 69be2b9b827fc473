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
from repro.distribution.partition import cut_points
from repro.engine.executor import InferenceSession
from repro.frameworks.base import DeployedModel
from repro.placement.deployment import Deployment, StageSpec

if TYPE_CHECKING:
    from collections.abc import Sequence

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


def _prefix_compute(deployed: DeployedModel,
                    schedulable: list[str]) -> list[float]:
    """Running sums of one deployment's per-op latencies, in op order."""
    # The planner prices caller-supplied deployments, outside the
    # Runner's scenario namespace.
    plan = InferenceSession(deployed).plan  # repro: allow[ARCH001]
    timings = dict(zip([op.name for op in plan.ops], plan.op_latency_s.tolist()))
    prefix = [0.0] * (len(schedulable) + 1)
    for i, name in enumerate(schedulable):
        prefix[i + 1] = prefix[i] + timings.get(name, 0.0)
    return prefix


def _partition(schedulable: list[str], prefixes: list[list[float]],
               transfer_at: list[float]) -> PipelinePlan:
    """The chain-partitioning DP behind both entry points.

    Device ``d`` prices its ops with ``prefixes[d]``; ``transfer_at[k]``
    ships the cut after ``k`` ops.  Per device, each candidate
    ``max(best[start], compute + outgoing)`` is one cell of a (start x end)
    table built ``_BLOCK`` end columns at a time; ``argmin`` down a column
    keeps the smallest start among ties, like a scalar loop's strict ``<``.
    """
    n = len(schedulable)
    num_devices = len(prefixes)
    # Only the last stage ends at n, and it returns nothing.
    outgoing = np.array(transfer_at[:n] + [0.0])
    invalid = np.tri(_BLOCK, dtype=bool)  # start >= end inside a block
    best = np.full(n + 1, np.inf)  # best[k]: minimal bottleneck over k ops
    best[0] = 0.0
    choices = []
    for d, prefix in enumerate(prefixes, start=1):
        prefix = np.array(prefix)
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
            compute_s=prefix[boundaries[d + 1]] - prefix[boundaries[d]],
            outgoing_transfer_s=(0.0 if d == num_devices - 1
                                 else transfer_at[boundaries[d + 1]]))
        for d, prefix in enumerate(prefixes)))


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
    names = {d.graph.name for d in deployments}
    if len(names) != 1:
        raise ValueError(f"all deployments must share one model, got {sorted(names)}")
    num_devices = len(deployments)
    schedulable = [op.name for op in deployments[0].graph.schedulable_ops()]
    for deployed in deployments[1:]:
        other = [op.name for op in deployed.graph.schedulable_ops()]
        if other != schedulable:
            raise ValueError(
                "deployments disagree on the op schedule (mixed frameworks "
                "with different fusion are not pipeline-compatible)")
    n = len(schedulable)
    if num_devices > n:
        raise ValueError(f"cannot spread {n} ops over {num_devices} devices")

    cuts = cut_points(deployments[0].graph)
    transfer_at = [link.transfer_time_s(c.transfer_bytes) for c in cuts]
    prefixes = [_prefix_compute(deployed, schedulable)
                for deployed in deployments]
    return _partition(schedulable, prefixes, transfer_at)


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
    prefix = _prefix_compute(deployed, schedulable)
    n = len(schedulable)
    if num_devices > n:
        raise ValueError(f"cannot spread {n} ops over {num_devices} devices")
    cuts = cut_points(deployed.graph)  # index k -> crossing bytes after k ops
    transfer_at = [link.transfer_time_s(c.transfer_bytes) for c in cuts]
    return _partition(schedulable, [prefix] * num_devices, transfer_at)


# -- lowering to Deployments -------------------------------------------------

def lower_pipeline(scenarios: "Sequence[Scenario]", link: NetworkLink | str, *,
                   runner: "Runner | None" = None) -> Deployment:
    """Lower an ordered chain of scenarios to a pipelined Deployment.

    Runs :func:`partition_pipeline_heterogeneous` over the scenarios'
    engine sessions (one per device position, so heterogeneous chains are
    fine) and attaches the per-device pricing — active power, idle power,
    session init — a served stage needs.  The
    :func:`as_pipeline_plan` projection of the result equals the
    partitioner's plan exactly.
    """
    from repro.distribution.split import _lowered_side

    link = resolve_link(link)
    scenarios = list(scenarios)
    if len(scenarios) < 2:
        raise ValueError("a pipeline needs at least two scenarios")
    if runner is None:
        from repro.runtime.runner import default_runner
        runner = default_runner()
    sessions = [runner.session(scenario) for scenario in scenarios]
    plan = partition_pipeline_heterogeneous(
        [session.deployed for session in sessions], link)
    bytes_at = [cut.transfer_bytes
                for cut in cut_points(sessions[0].deployed.graph)]
    stages = []
    consumed = 0
    last = len(scenarios) - 1
    for position, (scenario, session, stage) in enumerate(
            zip(scenarios, sessions, plan.stages)):
        consumed += len(stage.op_names)
        stages.append(StageSpec(
            scenario=scenario,
            op_names=stage.op_names,
            compute_s=stage.compute_s,
            transfer_s=stage.outgoing_transfer_s,
            transfer_bytes=0 if position == last else bytes_at[consumed],
            **_lowered_side(scenario, session),
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
