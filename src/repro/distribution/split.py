"""Neurosurgeon-style cloud-edge splits, priced as columns and lowered to
Deployments.

For every cut point: run the prefix on the edge device, ship the crossing
activations over the link, run the suffix on the remote platform.
:func:`cut_grid` prices all N + 1 cuts of every (edge, remote) pair over
one edge schedule at once, as float64 arrays read from the sides'
execution plans and the edge graph's crossing sizes, and
:func:`cut_columns` is its one-pair view.  Callers pick cuts on the
columns (the latency-optimal one, and the all-edge and all-remote
baselines the paper's offloading discussion contrasts — Section I:
privacy, connectivity and timing constraints are what rule the
all-remote point out in practice) and lower only those: :func:`lower_split`
prices a (edge scenario, remote scenario, link) triple and emits a
servable two-stage :class:`~repro.placement.deployment.Deployment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.distribution.network import NetworkLink, resolve_link
from repro.placement.deployment import Deployment, StageSpec

if TYPE_CHECKING:
    from repro.engine.executor import ExecutionPlan
    from repro.graphs.graph import Graph
    from repro.runtime.runner import Runner
    from repro.runtime.scenario import Scenario

#: Suffixes per block of the remote column's triangle: each block holds at
#: most N x 64 floats, however many ops the graph schedules.
_BLOCK = 64


# -- the cut columns ---------------------------------------------------------

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
        """Per-cut latency, added as ``(edge + transfer) + remote``."""
        return (self.edge_s + self.transfer_s) + self.remote_s

    def best_index(self) -> int:
        """The latency-optimal cut; the first among ties, as ``min()``."""
        return int(np.argmin(self.total_s))


@dataclass(frozen=True, eq=False)
class CutGrid:
    """Every cut of every (edge, remote) split over one edge schedule.

    ``edge_s`` holds one row per edge plan and ``remote_s`` one per remote
    plan; column ``k`` of each is the cut after ``k`` of the schedule's N
    ops, as in :class:`CutColumns`, and ``transfer_s`` is shared.
    """

    ops: tuple
    cut_bytes: np.ndarray
    edge_s: np.ndarray
    transfer_s: np.ndarray
    remote_s: np.ndarray

    @property
    def total_s(self) -> np.ndarray:
        """(edge, remote, cut) latencies, added as ``(edge + transfer) +
        remote``: every pair's :attr:`CutColumns.total_s` at once."""
        return ((self.edge_s + self.transfer_s)[:, None, :]
                + self.remote_s[None, :, :])

    def best_indices(self) -> np.ndarray:
        """Each (edge, remote) pair's latency-optimal cut; ``argmin`` keeps
        the first among ties, as ``min()``."""
        return self.total_s.argmin(axis=2)

    def pair(self, edge: int, remote: int) -> CutColumns:
        """The columns of one (edge row, remote row) pair."""
        return CutColumns(ops=self.ops, cut_bytes=self.cut_bytes,
                          edge_s=self.edge_s[edge], transfer_s=self.transfer_s,
                          remote_s=self.remote_s[remote])


def cut_grid(edges: Sequence[ExecutionPlan], remotes: Sequence[ExecutionPlan],
             cut_bytes: np.ndarray, link: NetworkLink) -> CutGrid:
    """Price all N + 1 cuts of every (edge, remote) split at once.

    ``edges`` are plans of one model scheduling the same N ops
    (deployments sharing one prepared graph), ``remotes`` plans of the same
    model, and ``cut_bytes`` the edge graph's crossing sizes
    (:attr:`~repro.graphs.table.OpTable.cut_bytes`).  Each non-empty side
    also pays its plan's session overhead and input transfer; nothing
    crosses the link once the edge keeps every op.  Every entry equals the
    per-cut scalar sum bit for bit: one sequential ``cumsum`` runs along
    the stacked edge rows, and each remote is priced along the schedule
    once, every suffix summed left to right.
    """
    ops = edges[0].ops
    count = len(ops)
    edge_s = np.zeros((len(edges), count + 1))
    np.cumsum(np.stack([plan.op_latency_s for plan in edges]), axis=1,
              out=edge_s[:, 1:])
    edge_s[:, 1:] += np.array([[plan.session_overhead_s + plan.input_transfer_s]
                               for plan in edges])
    transfer_s = np.zeros(count + 1)
    transfer_s[:count] = link.transfer_time_s(cut_bytes[:count])
    remote_s = np.zeros((len(remotes), count + 1))
    for row, plan in zip(remote_s, remotes):
        row[:count] = (_suffix_sums(_latency_along(plan, ops))
                       + (plan.session_overhead_s + plan.input_transfer_s))
    return CutGrid(ops=ops, cut_bytes=cut_bytes, edge_s=edge_s,
                   transfer_s=transfer_s, remote_s=remote_s)


def cut_columns(edge: ExecutionPlan, remote: ExecutionPlan,
                cut_bytes: np.ndarray, link: NetworkLink) -> CutColumns:
    """Price all N + 1 cuts of one split: the one-pair :func:`cut_grid`.

    ``edge`` and ``remote`` are the two sides' plans of one model and
    ``cut_bytes`` the edge graph's crossing sizes.
    """
    return cut_grid((edge,), (remote,), cut_bytes, link).pair(0, 0)


def _check_one_model(edge: Graph, remote: Graph) -> None:
    if edge.name != remote.name:
        raise ValueError(
            f"split requires one model on both sides, got "
            f"{edge.name!r} vs {remote.name!r}"
        )


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


def _op_names(ops: tuple) -> tuple[str, ...]:
    """The names of a schedule's ops: sliced by every cut lowered on it."""
    return tuple(op.name for op in ops)


def _deployment_from_split(columns: CutColumns, names: tuple[str, ...],
                           index: int, edge: _Side, remote: _Side,
                           link: NetworkLink) -> Deployment:
    """The cut at ``index`` as a Deployment, its legs in Python scalars;
    ``names`` are the op names of ``columns.ops``."""
    edge_s = float(columns.edge_s[index])
    if index == len(columns) - 1:
        # All-edge: nothing crosses the link, so this IS a single-node
        # deployment — normalize so the fleet serves it on the legacy path.
        return Deployment.single(edge.scenario, compute_s=edge_s,
                                 **edge.pricing)
    head = StageSpec(scenario=edge.scenario, op_names=names[:index],
                     compute_s=edge_s,
                     transfer_s=float(columns.transfer_s[index]),
                     transfer_bytes=int(columns.cut_bytes[index]),
                     **edge.pricing)
    tail = StageSpec(scenario=remote.scenario, op_names=names[index:],
                     compute_s=float(columns.remote_s[index]),
                     **remote.pricing)
    return Deployment(kind="split", link=link.name, stages=(head, tail))


def lower_split(edge: Scenario, remote: Scenario, link: NetworkLink | str, *,
                cut_index: int | None = None,
                runner: "Runner | None" = None) -> Deployment:
    """Lower one (edge scenario, remote scenario, link) split to a Deployment.

    With ``cut_index`` (``0 <= cut_index <= N`` for N schedulable ops)
    that cut is lowered; otherwise the latency-optimal one
    (:meth:`CutColumns.best_index`).  The all-edge cut normalizes to a
    single-node deployment; every other cut becomes a two-stage
    ``"split"`` deployment whose stages hold its column entries exactly:
    the edge leg and transfer on the head, the remote leg on the tail.
    Each side is priced with its scenario's runner session.
    """
    link = resolve_link(link)
    edge_side, remote_side, columns = _split_context(edge, remote, link, runner)
    if cut_index is None:
        cut_index = columns.best_index()
    elif not 0 <= cut_index < len(columns):
        raise ValueError(f"cut_index must be in [0, {len(columns) - 1}], "
                         f"the schedulable op count; got {cut_index}")
    return _deployment_from_split(columns, _op_names(columns.ops), cut_index,
                                  edge_side, remote_side, link)


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
    names = _op_names(columns.ops)
    return [_deployment_from_split(columns, names, index, edge_side,
                                   remote_side, link)
            for index in range(len(columns))]
