"""Test-only scalar references for the distribution algorithms.

``cut_points``, the split cuts and the pipeline DP run as a linear sweep,
as float64 columns and as blocked NumPy tables; these are the direct
formulations they replaced, kept as the oracle the fast forms must match
exactly.
"""

from __future__ import annotations

from repro.distribution.network import NetworkLink
from repro.distribution.partition import CutPoint, cut_points
from repro.distribution.split import SplitPlan
from repro.engine.executor import InferenceSession
from repro.frameworks.base import DeployedModel
from repro.graphs import ops as O
from repro.graphs.graph import Graph
from tests.graphs.reference import reference_schedulable


def reference_per_op_times(deployed: DeployedModel) -> dict[str, float]:
    """Per-op latency by op name, plus the plan's fixed per-inference
    terms under ``"__session__"``."""
    plan = InferenceSession(deployed).plan
    times = dict(zip([op.name for op in plan.ops], plan.op_latency_s.tolist()))
    times["__session__"] = plan.session_overhead_s + plan.input_transfer_s
    return times


def reference_split_sweep(edge: DeployedModel, remote: DeployedModel,
                          link: NetworkLink) -> list[SplitPlan]:
    """Every cut priced one at a time, input-side first: a running edge
    prefix and one ``sum()`` per remote suffix, each op looked up by name
    (ops the remote side fused away cost 0.0 there)."""
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
    plans = []
    for cut in cut_points(edge.graph):
        index = cut.index
        if count == 0 or index == count:
            # Fully local: the result still returns to the caller on-device.
            transfer = 0.0
        else:
            transfer = link.transfer_time_s(cut.transfer_bytes)
        edge_s = (0.0 if index == 0
                  else edge_prefix[index] + edge_times["__session__"])
        remote_s = (0.0 if index == count
                    else sum(remote_values[index:]) + remote_times["__session__"])
        plans.append(SplitPlan(
            cut=cut, edge_s=edge_s, transfer_s=transfer, remote_s=remote_s))
    return plans


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
