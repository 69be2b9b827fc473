"""Test-only scalar references for the distribution algorithms.

``cut_points``, the split cuts and the pipeline DP run as a linear sweep,
as float64 grids and as one blocked NumPy sweep over every chain length;
these are the direct formulations they replaced, kept as the oracle the
fast forms must match exactly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.summation import serial_sum
from repro.distribution.network import NetworkLink
from repro.distribution.partition import CutPoint, cut_points
from repro.engine.executor import InferenceSession
from repro.frameworks.base import DeployedModel
from repro.graphs import ops as O
from repro.graphs.graph import Graph
from repro.placement import Deployment
from tests.graphs.reference import reference_schedulable


def stage_fields(deployment: Deployment) -> list[tuple]:
    """Each stage's (ops, compute_s, transfer_s, transfer_bytes)."""
    return [(stage.op_names, stage.compute_s, stage.transfer_s,
             stage.transfer_bytes) for stage in deployment.stages]


def reference_per_op_times(deployed: DeployedModel) -> dict[str, float]:
    """Per-op latency by op name, plus the plan's fixed per-inference
    terms under ``"__session__"``."""
    plan = InferenceSession(deployed).plan
    times = dict(zip([op.name for op in plan.ops], plan.op_latency_s.tolist()))
    times["__session__"] = plan.session_overhead_s + plan.input_transfer_s
    return times


class ReferenceSweep(NamedTuple):
    """Every cut of one split over one link, input-side first."""

    cuts: list[CutPoint]
    edge_s: list[float]
    transfer_s: list[float]
    remote_s: list[float]

    @property
    def total_s(self) -> list[float]:
        """Per-cut latency, added as ``(edge + transfer) + remote``."""
        return [edge + transfer + remote for edge, transfer, remote
                in zip(self.edge_s, self.transfer_s, self.remote_s)]

    def best_index(self) -> int:
        """The first cut of least total latency, as ``min()`` picks it."""
        total_s = self.total_s
        return min(range(len(total_s)), key=total_s.__getitem__)

    def split_stages(self, index: int) -> list[tuple]:
        """:func:`stage_fields` of the two-stage split lowered at cut
        ``index``: the edge leg and the transfer on the head, the remote
        leg on the tail."""
        names = tuple(cut.after_op for cut in self.cuts[1:])
        return [(names[:index], self.edge_s[index], self.transfer_s[index],
                 self.cuts[index].transfer_bytes),
                (names[index:], self.remote_s[index], 0.0, 0)]


class ReferenceSplit(NamedTuple):
    """The link-independent legs of every cut of one split."""

    cuts: list[CutPoint]
    edge_s: list[float]
    remote_s: list[float]

    def over(self, link: NetworkLink) -> ReferenceSweep:
        """Every cut over ``link``: only the transfer leg is priced here,
        one cut at a time."""
        count = len(self.cuts) - 1
        transfer_s = [
            # Fully local: the result still returns to the caller on-device.
            0.0 if count == 0 or cut.index == count
            else link.transfer_time_s(cut.transfer_bytes)
            for cut in self.cuts]
        return ReferenceSweep(self.cuts, self.edge_s, transfer_s, self.remote_s)


def reference_split_legs(edge: DeployedModel,
                         remote: DeployedModel) -> ReferenceSplit:
    """Every cut's edge and remote legs priced one at a time: a running
    edge prefix and one left-to-right sum per remote suffix, each op looked up by
    name (ops the remote side fused away cost 0.0 there)."""
    edge_times = reference_per_op_times(edge)
    remote_times = reference_per_op_times(remote)
    schedulable = [op.name for op in edge.graph.schedulable_ops()]
    edge_values = [edge_times.get(name, 0.0) for name in schedulable]
    remote_values = [remote_times.get(name, 0.0) for name in schedulable]
    count = len(schedulable)
    edge_prefix = [0.0]
    acc = 0.0
    for value in edge_values:
        acc += value
        edge_prefix.append(acc)
    cuts = cut_points(edge.graph)
    edge_s, remote_s = [], []
    for cut in cuts:
        index = cut.index
        edge_s.append(0.0 if index == 0
                      else edge_prefix[index] + edge_times["__session__"])
        remote_s.append(0.0 if index == count
                        else serial_sum(remote_values[index:])
                        + remote_times["__session__"])
    return ReferenceSplit(cuts, edge_s, remote_s)


def reference_split_sweep(edge: DeployedModel, remote: DeployedModel,
                          link: NetworkLink) -> ReferenceSweep:
    """Every cut of one split over ``link``, priced one at a time."""
    return reference_split_legs(edge, remote).over(link)


def reference_prefix_compute(deployed: DeployedModel,
                             schedulable: list[str]) -> list[float]:
    """Running sums of one deployment's per-op latencies along
    ``schedulable``, one op at a time."""
    timings = reference_per_op_times(deployed)
    prefix = [0.0] * (len(schedulable) + 1)
    for i, name in enumerate(schedulable):
        prefix[i + 1] = prefix[i] + timings.get(name, 0.0)
    return prefix


def reference_cut_points(graph: Graph) -> list[CutPoint]:
    """Every cut, each rescanning every producer's consumer list."""
    schedulable = reference_schedulable(graph)
    order_index = {id(op): i for i, op in enumerate(schedulable)}

    def position(op: O.Op) -> int:
        anchor = op
        while anchor.fused_into is not None:
            anchor = anchor.fused_into
        if isinstance(anchor, O.Input):
            return -1
        return order_index[id(anchor)]

    consumers: dict[int, list[int]] = {}
    for op in graph.ops:
        consumer_pos = position(op)
        for parent in op.inputs:
            producer_pos = position(parent)
            if producer_pos == consumer_pos:
                continue
            consumers.setdefault(producer_pos, []).append(consumer_pos)

    input_bytes = sum(op.output_bytes() for op in graph.inputs)
    points = [CutPoint(index=0, after_op="", transfer_bytes=input_bytes)]
    output_bytes = sum(op.output_bytes() for op in graph.outputs)
    for k in range(1, len(schedulable) + 1):
        crossing = 0
        for producer_pos, consumer_positions in consumers.items():
            if producer_pos < k and any(pos >= k for pos in consumer_positions):
                if producer_pos == -1:
                    crossing += input_bytes
                else:
                    crossing += schedulable[producer_pos].output_bytes()
        if k == len(schedulable):
            crossing = output_bytes
        points.append(CutPoint(index=k, after_op=schedulable[k - 1].name,
                               transfer_bytes=crossing))
    return points


def reference_boundaries(prefixes: list[list[float]],
                         transfer_at: list[float]) -> list[int]:
    """Stage boundaries of the O(N^2 * D) scalar bottleneck DP.

    Device ``d`` runs ops ``boundaries[d]:boundaries[d + 1]`` priced with
    ``prefixes[d]``; ``transfer_at[k]`` ships the cut after ``k`` ops.
    """
    num_devices = len(prefixes)
    n = len(transfer_at) - 1
    INF = float("inf")
    best = [[INF] * (n + 1) for _ in range(num_devices + 1)]
    choice = [[-1] * (n + 1) for _ in range(num_devices + 1)]
    best[0][0] = 0.0
    for d in range(1, num_devices + 1):
        prefix = prefixes[d - 1]
        for end in range(d, n + 1):
            for start in range(d - 1, end):
                if best[d - 1][start] == INF:
                    continue
                compute = prefix[end] - prefix[start]
                outgoing = (0.0 if (d == num_devices and end == n)
                            else transfer_at[end])
                candidate = max(best[d - 1][start], compute + outgoing)
                if candidate < best[d][end]:
                    best[d][end] = candidate
                    choice[d][end] = start
    assert best[num_devices][n] != INF, "no feasible partition"
    boundaries = [n]
    for d in range(num_devices, 0, -1):
        boundaries.append(choice[d][boundaries[-1]])
    boundaries.reverse()
    return boundaries


def reference_pipeline(deployments: list[DeployedModel],
                       link: NetworkLink) -> list[tuple]:
    """:func:`stage_fields` of the pipeline the scalar DP picks over the
    ordered ``deployments``: each stage's ops, its device's prefix
    difference, and the transfer and crossing bytes of the cut after it
    (none after the last stage)."""
    schedulable = [op.name for op in deployments[0].graph.schedulable_ops()]
    prefixes = [reference_prefix_compute(deployed, schedulable)
                for deployed in deployments]
    cuts = cut_points(deployments[0].graph)
    transfer_at = [link.transfer_time_s(cut.transfer_bytes) for cut in cuts]
    boundaries = reference_boundaries(prefixes, transfer_at)
    last = len(deployments) - 1
    stages = []
    for d, prefix in enumerate(prefixes):
        start, end = boundaries[d], boundaries[d + 1]
        stages.append((tuple(schedulable[start:end]),
                       prefix[end] - prefix[start],
                       0.0 if d == last else transfer_at[end],
                       0 if d == last else cuts[end].transfer_bytes))
    return stages


#: End columns per block of :func:`reference_partition`'s tables.
_BLOCK = 64


def reference_partition(prefixes: list, transfer_at) -> list[tuple]:
    """The blocked DP for ONE chain length, as it ran before the sweep:
    one ``(start, end, compute_s, transfer_s)`` stage per device.

    Device ``d`` of D only ends a stage where it leaves one op to each
    later device (the last device only at N), so each chain length is its
    own DP; ``argmin`` down a column keeps the smallest start among ties.
    """
    n = len(transfer_at) - 1
    num_devices = len(prefixes)
    outgoing = np.append(transfer_at[:n], 0.0)
    invalid = np.tri(_BLOCK, dtype=bool)
    best = np.full(n + 1, np.inf)
    best[0] = 0.0
    choices = []
    for d, prefix in enumerate(prefixes, start=1):
        prefix = np.asarray(prefix)
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
    return [(start, end, float(prefix[end] - prefix[start]), float(outgoing[end]))
            for prefix, start, end in zip(prefixes, boundaries, boundaries[1:])]
