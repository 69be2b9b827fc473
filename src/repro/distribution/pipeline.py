"""Pipeline partitioning across a chain of edge devices, lowered to
Deployments.

The authors' collaborative-robots line of work distributes one DNN across
several resource-constrained devices stage-by-stage and streams inputs
through the pipeline.  Steady-state throughput is set by the slowest stage
(compute plus its outgoing transfer), so the partitioner minimizes the
bottleneck over all contiguous stage assignments via dynamic programming.
:func:`lower_pipeline` runs it over a chain of scenarios and emits a
servable multi-stage :class:`~repro.placement.deployment.Deployment`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.distribution.network import NetworkLink, resolve_link
from repro.distribution.split import _open_side, _prefix_latency
from repro.placement.deployment import Deployment, StageSpec

if TYPE_CHECKING:
    from collections.abc import Sequence

    from numpy.typing import ArrayLike

    from repro.graphs.graph import Graph
    from repro.runtime.runner import Runner
    from repro.runtime.scenario import Scenario

#: End columns per DP table block: each (start x end) table holds at most
#: (N + 1) x 64 floats, however many ops the graph schedules.
_BLOCK = 64


def _partition(prefixes: "Sequence[ArrayLike]",
               transfer_at: ArrayLike) -> list[tuple[int, int, float, float]]:
    """The chain-partitioning DP: one ``(start, end, compute_s,
    transfer_s)`` stage per device, in chain order.

    Device ``d`` prices its ops with ``prefixes[d]`` and runs ops
    ``start:end``; ``transfer_at[k]`` ships the cut after ``k`` of the N
    ops (N + 1 entries), and the last stage ships nothing.  Per device,
    each candidate ``max(best[start], compute + outgoing)`` is one cell of
    a (start x end) table built ``_BLOCK`` end columns at a time;
    ``argmin`` down a column keeps the smallest start among ties, like a
    scalar loop's strict ``<``.
    """
    n = len(transfer_at) - 1
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
    return [(start, end, float(prefix[end] - prefix[start]), float(outgoing[end]))
            for prefix, start, end in zip(prefixes, boundaries, boundaries[1:])]


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


# -- lowering to Deployments -------------------------------------------------

def lower_pipeline(scenarios: "Sequence[Scenario]", link: NetworkLink | str, *,
                   runner: "Runner | None" = None) -> Deployment:
    """Lower an ordered chain of scenarios to a pipelined Deployment.

    Partitions the chain over the plans of the scenarios' own runner
    sessions (one per device position, so heterogeneous chains are fine):
    each device's prefix is one ``cumsum`` of its plan's latencies and
    each cut's transfer is priced from the graph's crossing sizes.  Each
    stage holds its DP stage exactly (ops, compute, outgoing transfer)
    plus the crossing bytes and the per-device pricing (active power,
    idle power, session init) a served stage needs.
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
    schedulable = _chain_schedule([side.graph for side in sides])
    if len(sides) > len(schedulable):
        raise ValueError(f"cannot spread {len(schedulable)} ops over "
                         f"{len(sides)} devices")
    bytes_at = sides[0].graph.table.cut_bytes
    stages = _partition([_prefix_latency(side.plan) for side in sides],
                        link.transfer_time_s(bytes_at))
    return Deployment(kind="pipeline", link=link.name, stages=tuple(
        StageSpec(scenario=side.scenario,
                  op_names=tuple(schedulable[start:end]),
                  compute_s=compute_s,
                  transfer_s=transfer_s,
                  transfer_bytes=(0 if end == len(schedulable)
                                  else int(bytes_at[end])),
                  **side.pricing)
        for side, (start, end, compute_s, transfer_s) in zip(sides, stages)))
