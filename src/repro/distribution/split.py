"""Neurosurgeon-style cloud-edge split planning, lowered to Deployments.

For every cut point: run the prefix on the edge device, ship the crossing
activations over the link, run the suffix on the remote platform.
:func:`cut_columns` prices all N + 1 cuts at once, as float64 columns read
from both sides' execution plans and the edge graph's crossing sizes;
callers build :class:`SplitPlan` objects only for the cuts they return —
the latency-optimal one, and the all-edge and all-remote baselines the
paper's offloading discussion contrasts (Section I: privacy, connectivity
and timing constraints are what rule the all-remote point out in practice).

Since the :class:`~repro.placement.deployment.Deployment` refactor this
module is a *lowering rule*: :func:`lower_split` prices a (edge scenario,
remote scenario, link) triple and emits a servable two-stage Deployment,
and the scenario-free :class:`SplitPlan`/:class:`SplitPlanner` entry
points remain as the per-cut projection of those deployments
(:func:`as_split_plan` recovers the plan from the deployment exactly).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.distribution.network import NetworkLink, resolve_link
from repro.distribution.partition import CutPoint
from repro.engine.executor import InferenceSession
from repro.frameworks.base import DeployedModel
from repro.placement.deployment import Deployment, StageSpec

if TYPE_CHECKING:
    from repro.engine.executor import ExecutionPlan
    from repro.graphs.graph import Graph
    from repro.runtime.runner import Runner
    from repro.runtime.scenario import Scenario

#: Suffixes per block of the remote column's triangle: each block holds at
#: most N x 64 floats, however many ops the graph schedules.
_BLOCK = 64


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


# -- the cut columns ---------------------------------------------------------

def _session_plan(deployed: DeployedModel) -> ExecutionPlan:
    """The execution plan of a caller-supplied deployment."""
    # The planners price deployments outside the Runner's scenario
    # namespace (remote platforms, hand-built chains).
    return InferenceSession(deployed).plan  # repro: allow[ARCH001]


def _prefix_latency(plan: ExecutionPlan) -> np.ndarray:
    """Running sums of a plan's per-op latencies from 0.0, in op order:
    entry ``k`` is the time of the first ``k`` ops."""
    prefix = np.zeros(len(plan.ops) + 1)
    np.cumsum(plan.op_latency_s, out=prefix[1:])
    return prefix


def _latency_along(plan: ExecutionPlan, ops: tuple) -> np.ndarray:
    """``plan``'s per-op latencies along another schedule of the same
    model; 0.0 for the ops ``plan`` does not schedule (fused away)."""
    if plan.ops == ops:
        return plan.op_latency_s
    position = {op.name: i for i, op in enumerate(plan.ops)}
    padded = np.append(plan.op_latency_s, 0.0)
    return padded[[position.get(op.name, -1) for op in ops]]


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """``sum(values[k:])`` for every ``k``, each summed left to right.

    Column ``k`` of a block holds ``values`` from index ``k`` on below
    zeros, so its running sum down the rows reaches ``values[k]`` exactly
    and then adds in ``sum()``'s order (a reversed ``cumsum`` or a pairwise
    ``np.sum`` would not); one ``cumsum`` runs a block's columns together.
    """
    n = len(values)
    sums = np.empty(n)
    above = ~np.tri(_BLOCK, dtype=bool)  # row < column
    for lo in range(0, n, _BLOCK):
        width = min(_BLOCK, n - lo)
        block = np.empty((n - lo, width))
        block[:] = values[lo:, None]
        block[:width][above[:width, :width]] = 0.0
        sums[lo:lo + width] = np.cumsum(block, axis=0, out=block)[-1]
    return sums


@dataclass(frozen=True, eq=False)
class CutColumns:
    """Every cut of one split as float64 columns.

    Row ``k`` is the cut after ``k`` of the edge schedule's N ops: 0 ships
    the raw input (all remote), N keeps everything on the edge.
    """

    ops: tuple
    cut_bytes: np.ndarray
    edge_s: np.ndarray
    transfer_s: np.ndarray
    remote_s: np.ndarray

    def __len__(self) -> int:
        return len(self.edge_s)

    @property
    def total_s(self) -> np.ndarray:
        """Per-cut latency, added in :attr:`SplitPlan.total_s`'s order."""
        return (self.edge_s + self.transfer_s) + self.remote_s

    def best_index(self) -> int:
        """The latency-optimal cut; the first among ties, as ``min()``."""
        return int(np.argmin(self.total_s))

    def plan(self, index: int) -> SplitPlan:
        """The :class:`SplitPlan` at one cut, in Python scalars."""
        return SplitPlan(
            cut=CutPoint(index=index,
                         after_op=self.ops[index - 1].name if index else "",
                         transfer_bytes=int(self.cut_bytes[index])),
            edge_s=float(self.edge_s[index]),
            transfer_s=float(self.transfer_s[index]),
            remote_s=float(self.remote_s[index]))


def cut_columns(edge: ExecutionPlan, remote: ExecutionPlan,
                cut_bytes: np.ndarray, link: NetworkLink) -> CutColumns:
    """Price all N + 1 cuts of one split.

    ``edge`` and ``remote`` are the two sides' plans of one model and
    ``cut_bytes`` the edge graph's crossing sizes
    (:attr:`~repro.graphs.table.OpTable.cut_bytes`).  Each non-empty side
    also pays its plan's session overhead and input transfer; nothing
    crosses the link once the edge keeps every op.  Every entry equals the
    per-cut scalar sum bit for bit: the edge prefix is one sequential
    ``cumsum`` and each remote suffix sums left to right.
    """
    count = len(edge.ops)
    edge_s = _prefix_latency(edge)
    edge_s[1:] += edge.session_overhead_s + edge.input_transfer_s
    transfer_s = np.zeros(count + 1)
    transfer_s[:count] = link.transfer_time_s(cut_bytes[:count])
    remote_s = np.zeros(count + 1)
    remote_s[:count] = (_suffix_sums(_latency_along(remote, edge.ops))
                        + (remote.session_overhead_s + remote.input_transfer_s))
    return CutColumns(ops=edge.ops, cut_bytes=cut_bytes, edge_s=edge_s,
                      transfer_s=transfer_s, remote_s=remote_s)


def _check_one_model(edge: Graph, remote: Graph) -> None:
    if edge.name != remote.name:
        raise ValueError(
            f"split requires one model on both sides, got "
            f"{edge.name!r} vs {remote.name!r}"
        )


class SplitPlanner:
    """Evaluates every cut of a model between two deployments.

    Both deployments must come from the SAME source graph so that op names
    align; the planner times each side with its own engine session and
    prices the link with the crossing-tensor sizes.
    """

    def __init__(self, edge: DeployedModel, remote: DeployedModel, link: NetworkLink):
        _check_one_model(edge.graph, remote.graph)
        self.edge = edge
        self.remote = remote
        self._plans = (_session_plan(edge), _session_plan(remote))
        self.link = link
        self.columns = cut_columns(*self._plans, edge.graph.table.cut_bytes, link)

    def with_link(self, link: NetworkLink) -> SplitPlanner:
        """A planner for the same deployments priced over a different link.

        Shares both sides' plans (the expensive part — two engine sessions
        per planner); only the cut columns are repriced.
        """
        other = copy.copy(self)
        other.link = link
        other.columns = cut_columns(*self._plans,
                                    self.edge.graph.table.cut_bytes, link)
        return other

    def sweep(self) -> list[SplitPlan]:
        """Every cut as a :class:`SplitPlan`, input-side first."""
        columns = self.columns
        return [columns.plan(index) for index in range(len(columns))]

    def best(self) -> SplitPlan:
        columns = self.columns
        return columns.plan(columns.best_index())

    def all_edge(self) -> SplitPlan:
        return self.columns.plan(len(self.columns) - 1)

    def all_remote(self) -> SplitPlan:
        return self.columns.plan(0)

    def offload_speedup(self) -> float:
        """Best split latency improvement over staying fully on the edge."""
        return self.all_edge().total_s / self.best().total_s


# -- lowering to Deployments -------------------------------------------------

class _Side(NamedTuple):
    """One scenario's runner session, read once for every stage it serves."""

    scenario: Scenario
    graph: Graph
    plan: ExecutionPlan
    pricing: dict[str, float]


def _open_side(scenario: Scenario, runner: Runner) -> _Side:
    """The scenario's graph and plan, and the per-device pricing a served
    stage needs beyond its compute time."""
    from repro.hardware.catalog import load_device
    from repro.measurement.energy import active_power_w

    session = runner.session(scenario)
    return _Side(scenario, session.deployed.graph, session.plan, {
        "power_w": active_power_w(session),
        "idle_w": load_device(scenario.device).power.idle_w,
        "init_time_s": session.init_time_s,
    })


def _split_context(edge: Scenario, remote: Scenario, link: NetworkLink,
                   runner: "Runner | None"):
    """Both sides and their cut columns, shared by the split lowerings."""
    if runner is None:
        from repro.runtime.runner import default_runner
        runner = default_runner()
    edge_side = _open_side(edge, runner)
    remote_side = _open_side(remote, runner)
    _check_one_model(edge_side.graph, remote_side.graph)
    return edge_side, remote_side, cut_columns(
        edge_side.plan, remote_side.plan, edge_side.graph.table.cut_bytes, link)


def _deployment_from_split(columns: CutColumns, index: int, edge: _Side,
                           remote: _Side, link: NetworkLink) -> Deployment:
    plan = columns.plan(index)
    if index == len(columns) - 1:
        # All-edge: nothing crosses the link, so this IS a single-node
        # deployment — normalize so the fleet serves it on the legacy path.
        return Deployment.single(edge.scenario, compute_s=plan.edge_s,
                                 **edge.pricing)
    names = tuple(op.name for op in columns.ops)
    head = StageSpec(scenario=edge.scenario, op_names=names[:index],
                     compute_s=plan.edge_s, transfer_s=plan.transfer_s,
                     transfer_bytes=plan.cut.transfer_bytes, **edge.pricing)
    tail = StageSpec(scenario=remote.scenario, op_names=names[index:],
                     compute_s=plan.remote_s, **remote.pricing)
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
    projection equals the planner's plan exactly.  Each side is priced
    with its scenario's runner session.
    """
    link = resolve_link(link)
    edge_side, remote_side, columns = _split_context(edge, remote, link, runner)
    if cut_index is None:
        cut_index = columns.best_index()
    elif not 0 <= cut_index < len(columns):
        raise ValueError(f"cut_index must be in [0, {len(columns) - 1}], "
                         f"the schedulable op count; got {cut_index}")
    return _deployment_from_split(columns, cut_index, edge_side, remote_side,
                                  link)


def split_deployments(edge: Scenario, remote: Scenario,
                      link: NetworkLink | str, *,
                      runner: "Runner | None" = None) -> list[Deployment]:
    """Lower the FULL cut sweep, input-side cut first.

    One runner session per side and one :func:`cut_columns` call price
    every cut, but each cut is then lowered to its own
    :class:`Deployment`, an O(N) op-name slice per cut.  Callers that keep
    only a few cuts should pick them on the columns and lower just those.
    """
    link = resolve_link(link)
    edge_side, remote_side, columns = _split_context(edge, remote, link, runner)
    return [_deployment_from_split(columns, index, edge_side, remote_side, link)
            for index in range(len(columns))]


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
