"""Neurosurgeon-style cloud-edge split planning, lowered to Deployments.

For every cut point: run the prefix on the edge device, ship the crossing
activations over the link, run the suffix on the remote platform.  The
planner evaluates all cuts with the engine's per-op timings and returns the
latency-optimal plan, together with the all-edge and all-remote baselines
the paper's offloading discussion contrasts (Section I: privacy, connectivity
and timing constraints are what rule the all-remote point out in practice).

Since the :class:`~repro.placement.deployment.Deployment` refactor this
module is a *lowering rule*: :func:`lower_split` prices a (edge scenario,
remote scenario, link) triple and emits a servable two-stage Deployment,
and the scenario-free :class:`SplitPlan`/:class:`SplitPlanner` entry
points remain as the per-cut projection of those deployments
(:func:`as_split_plan` recovers the plan from the deployment exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.distribution.network import NetworkLink, resolve_link
from repro.distribution.partition import CutPoint, cut_points
from repro.engine.executor import InferenceSession
from repro.frameworks.base import DeployedModel
from repro.placement.deployment import Deployment, StageSpec

if TYPE_CHECKING:
    from repro.runtime.runner import Runner
    from repro.runtime.scenario import Scenario


@dataclass(frozen=True)
class SplitPlan:
    """One evaluated cut."""

    cut: CutPoint
    edge_s: float
    transfer_s: float
    remote_s: float

    @property
    def total_s(self) -> float:
        return self.edge_s + self.transfer_s + self.remote_s

    @property
    def is_all_edge(self) -> bool:
        return math.isclose(self.remote_s, 0.0, abs_tol=1e-15) and self.cut.after_op != ""

    def describe(self) -> str:
        where = f"after {self.cut.after_op!r}" if self.cut.after_op else "at the input"
        return (
            f"cut {where}: edge {self.edge_s * 1e3:.1f} ms + link "
            f"{self.transfer_s * 1e3:.1f} ms + remote {self.remote_s * 1e3:.1f} ms "
            f"= {self.total_s * 1e3:.1f} ms"
        )


class SplitPlanner:
    """Evaluates every cut of a model between two deployments.

    Both deployments must come from the SAME source graph so that op names
    align; the planner times each side with its own engine session and
    prices the link with the crossing-tensor sizes.
    """

    def __init__(self, edge: DeployedModel, remote: DeployedModel, link: NetworkLink):
        if edge.graph.name != remote.graph.name:
            raise ValueError(
                f"split requires one model on both sides, got "
                f"{edge.graph.name!r} vs {remote.graph.name!r}"
            )
        self.edge = edge
        self.remote = remote
        self.link = link
        self._edge_times = self._per_op_times(edge)
        self._remote_times = self._per_op_times(remote)
        self._cuts = cut_points(edge.graph)
        self._plans: list[SplitPlan] | None = None

    def with_link(self, link: NetworkLink) -> SplitPlanner:
        """A planner for the same deployments priced over a different link.

        Shares the per-op timing tables and cut list (the expensive part —
        two engine sessions per planner); only transfer pricing changes.
        """
        other = SplitPlanner.__new__(SplitPlanner)
        other.edge = self.edge
        other.remote = self.remote
        other.link = link
        other._edge_times = self._edge_times
        other._remote_times = self._remote_times
        other._cuts = self._cuts
        other._plans = None
        return other

    @staticmethod
    def _per_op_times(deployed: DeployedModel) -> dict[str, float]:
        # The planner prices caller-supplied deployments (remote platforms
        # outside the Runner's scenario namespace).
        plan = InferenceSession(deployed).plan  # repro: allow[ARCH001]
        times = dict(zip([op.name for op in plan.ops], plan.op_latency_s.tolist()))
        times["__session__"] = plan.session_overhead_s + plan.input_transfer_s
        return times

    def sweep(self) -> list[SplitPlan]:
        """Evaluate every cut point, input-side first.  Plans are memoized;
        repeated calls (``best``/``all_edge``/``all_remote``) reuse them."""
        if self._plans is None:
            self._plans = self._sweep()
        return list(self._plans)

    def _sweep(self) -> list[SplitPlan]:
        schedulable = [op.name for op in self.edge.graph.schedulable_ops()]
        edge_values = [self._edge_times.get(name, 0.0) for name in schedulable]
        remote_values = [self._remote_times.get(name, 0.0) for name in schedulable]
        count = len(schedulable)
        # Running prefix sums accumulate left-to-right — the same float-op
        # order as summing each prefix from scratch, so cuts price
        # bit-identically to the quadratic form this replaces.
        edge_prefix = [0.0]
        acc = 0.0
        for value in edge_values:
            acc += value
            edge_prefix.append(acc)
        plans = []
        for cut in self._cuts:
            index = cut.index
            if count == 0 or index == count:
                # Fully local: the result still returns to the caller on-device.
                transfer = 0.0
            else:
                transfer = self.link.transfer_time_s(cut.transfer_bytes)
            edge_s = (0.0 if index == 0
                      else edge_prefix[index] + self._edge_times["__session__"])
            remote_s = (0.0 if index == count
                        else sum(remote_values[index:])
                        + self._remote_times["__session__"])
            plans.append(SplitPlan(
                cut=cut, edge_s=edge_s, transfer_s=transfer, remote_s=remote_s))
        return plans

    def best(self) -> SplitPlan:
        return min(self.sweep(), key=lambda plan: plan.total_s)

    def all_edge(self) -> SplitPlan:
        return self.sweep()[-1]

    def all_remote(self) -> SplitPlan:
        return self.sweep()[0]

    def offload_speedup(self) -> float:
        """Best split latency improvement over staying fully on the edge."""
        return self.all_edge().total_s / self.best().total_s


# -- lowering to Deployments -------------------------------------------------

def _lowered_side(scenario: Scenario, session) -> dict[str, float]:
    """Per-device pricing a served stage needs beyond its compute time."""
    from repro.hardware.catalog import load_device
    from repro.measurement.energy import active_power_w

    return {
        "power_w": active_power_w(session),
        "idle_w": load_device(scenario.device).power.idle_w,
        "init_time_s": session.init_time_s,
    }


def _split_context(edge: Scenario, remote: Scenario, link: NetworkLink,
                   runner: "Runner | None"):
    """Sessions, sweep and per-side pricing shared by the split lowerings."""
    if runner is None:
        from repro.runtime.runner import default_runner
        runner = default_runner()
    edge_session = runner.session(edge)
    remote_session = runner.session(remote)
    planner = SplitPlanner(edge_session.deployed, remote_session.deployed, link)
    schedulable = tuple(
        op.name for op in edge_session.deployed.graph.schedulable_ops())
    return (planner.sweep(), schedulable,
            _lowered_side(edge, edge_session),
            _lowered_side(remote, remote_session))


def _deployment_from_split(plan: SplitPlan, edge: Scenario, remote: Scenario,
                           schedulable: tuple[str, ...], link: NetworkLink,
                           edge_side: dict[str, float],
                           remote_side: dict[str, float]) -> Deployment:
    index = plan.cut.index
    if index == len(schedulable):
        # All-edge: nothing crosses the link, so this IS a single-node
        # deployment — normalize so the fleet serves it on the legacy path.
        return Deployment.single(edge, compute_s=plan.edge_s, **edge_side)
    head = StageSpec(scenario=edge, op_names=schedulable[:index],
                     compute_s=plan.edge_s, transfer_s=plan.transfer_s,
                     transfer_bytes=plan.cut.transfer_bytes, **edge_side)
    tail = StageSpec(scenario=remote, op_names=schedulable[index:],
                     compute_s=plan.remote_s, **remote_side)
    return Deployment(kind="split", link=link.name, stages=(head, tail))


def lower_split(edge: Scenario, remote: Scenario, link: NetworkLink | str, *,
                cut_index: int | None = None,
                runner: "Runner | None" = None) -> Deployment:
    """Lower one (edge scenario, remote scenario, link) split to a Deployment.

    With ``cut_index`` (``0 <= cut_index <= N`` for N schedulable ops)
    the plan at that cut is lowered; otherwise the latency-optimal cut is
    chosen (exactly :meth:`SplitPlanner.best`).  The all-edge cut
    normalizes to a single-node deployment; every other cut becomes a
    two-stage ``"split"`` deployment whose :func:`as_split_plan`
    projection equals the planner's plan exactly.
    """
    link = resolve_link(link)
    plans, schedulable, edge_side, remote_side = _split_context(
        edge, remote, link, runner)
    if cut_index is None:
        cut_index = min(range(len(plans)), key=lambda i: plans[i].total_s)
    elif not 0 <= cut_index < len(plans):
        raise ValueError(f"cut_index must be in [0, {len(schedulable)}], "
                         f"the schedulable op count; got {cut_index}")
    plan = plans[cut_index]
    return _deployment_from_split(
        plan, edge, remote, schedulable, link, edge_side, remote_side)


def split_deployments(edge: Scenario, remote: Scenario,
                      link: NetworkLink | str, *,
                      runner: "Runner | None" = None) -> list[Deployment]:
    """Lower the FULL cut sweep, input-side cut first.

    One engine session per side prices every cut (the planner's prefix-sum
    sweep), but each cut is then lowered to its own :class:`Deployment`,
    an O(N) op-name slice per cut.  Callers that keep only a few cuts
    should pick them on the :class:`SplitPlan` sweep and lower just those.
    """
    link = resolve_link(link)
    plans, schedulable, edge_side, remote_side = _split_context(
        edge, remote, link, runner)
    return [_deployment_from_split(plan, edge, remote, schedulable, link,
                                   edge_side, remote_side)
            for plan in plans]


def as_split_plan(deployment: Deployment) -> SplitPlan:
    """Project a two-stage split deployment back onto its :class:`SplitPlan`.

    Inverse of :func:`lower_split` for non-degenerate cuts:
    ``as_split_plan(lower_split(e, r, link, cut_index=k))`` equals
    ``SplitPlanner.sweep()[k]`` exactly (dataclass equality, zero float
    tolerance).  All-edge deployments normalize to single-node and carry no
    cut anymore, so they cannot be projected.
    """
    if deployment.kind != "split" or deployment.num_stages != 2:
        raise ValueError(
            f"expected a two-stage split deployment, got {deployment.kind!r} "
            f"with {deployment.num_stages} stage(s)")
    head, tail = deployment.stages
    ops = head.op_names or ()
    cut = CutPoint(index=len(ops), after_op=ops[-1] if ops else "",
                   transfer_bytes=head.transfer_bytes)
    return SplitPlan(cut=cut, edge_s=head.compute_s,
                     transfer_s=head.transfer_s, remote_s=tail.compute_s)
