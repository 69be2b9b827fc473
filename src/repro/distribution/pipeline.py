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
from repro.distribution.split import _open_side, _prefix_latency, _Side
from repro.placement.deployment import Deployment, StageSpec

if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence

    from numpy.typing import ArrayLike

    from repro.graphs.graph import Graph
    from repro.runtime.runner import Runner
    from repro.runtime.scenario import Scenario

#: End columns per DP table block: each (start x end) table holds at most
#: (N + 1) x 64 floats, however many ops the graph schedules.
_BLOCK = 64

#: One pipeline stage: ops ``start:end``, their compute and the outgoing
#: transfer.
Stage = tuple[int, int, float, float]


def _partition(prefixes: "Sequence[ArrayLike]",
               transfer_at: ArrayLike) -> list[list[Stage] | None]:
    """The chain-partitioning DP, swept once for every chain length.

    Entry ``L - 1`` holds the ``(start, end, compute_s, transfer_s)``
    stages of the first ``L`` devices' optimal partition, in chain order,
    or None when none is feasible.  Device ``d`` prices its ops with
    ``prefixes[d]``; ``transfer_at[k]`` ships the cut after ``k`` of the N
    ops (N + 1 entries), and a chain's last stage ships nothing.

    Device ``d`` runs once, over every end ``d..N`` (at N it ends the
    ``d``-device chain), the last device only at N.  Each candidate
    ``max(best[start], compute + outgoing)`` is one cell of a (start x
    end) table built ``_BLOCK`` end columns at a time, ``start >= end``
    masked; ``argmin`` down a column keeps the smallest start among ties,
    like a scalar loop's strict ``<``.  A DP for one chain length would
    skip the ends that leave no op to a later device, which no feasible
    partition uses, so every length's stages are that DP's.
    """
    n = len(transfer_at) - 1
    num_devices = len(prefixes)
    # Only the last stage ends at n, and it returns nothing.
    outgoing = np.append(transfer_at[:n], 0.0)
    invalid = np.tri(_BLOCK, dtype=bool)  # start >= end inside a block
    best = np.full(n + 1, np.inf)  # best[k]: minimal bottleneck over k ops
    best[0] = 0.0
    choices = []
    bottlenecks = []  # per chain length: its minimal bottleneck
    # Every device takes at least one op: device d starts at d - 1 or later.
    for d, prefix in enumerate(prefixes[:n], start=1):
        prefix = np.asarray(prefix)
        row = d - 1
        new_best = np.full(n + 1, np.inf)
        choice = np.full(n + 1, -1)
        for lo in range(n if d == num_devices else d, n + 1, _BLOCK):
            hi = min(lo + _BLOCK, n + 1)
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
        bottlenecks.append(best[n])

    chains: list[list[Stage] | None] = []
    for length in range(1, num_devices + 1):
        if length > n or bottlenecks[length - 1] == np.inf:
            chains.append(None)
            continue
        boundaries = [n]
        for choice in reversed(choices[:length]):
            boundaries.append(int(choice[boundaries[-1]]))
        boundaries.reverse()
        chains.append([
            (start, end, float(prefix[end] - prefix[start]), float(outgoing[end]))
            for prefix, start, end in zip(prefixes, boundaries, boundaries[1:])])
    return chains


def _chain_schedule(graphs: "Sequence[Graph]") -> tuple[str, ...]:
    """The op schedule every deployed graph of one pipeline chain shares."""
    names = {graph.name for graph in graphs}
    if len(names) != 1:
        raise ValueError(f"all deployments must share one model, got {sorted(names)}")
    schedulable = tuple(op.name for op in graphs[0].schedulable_ops())
    for graph in graphs[1:]:
        other = tuple(op.name for op in graph.schedulable_ops())
        if other != schedulable:
            raise ValueError(
                "deployments disagree on the op schedule (mixed frameworks "
                "with different fusion are not pipeline-compatible)")
    return schedulable


# -- lowering to Deployments -------------------------------------------------

def _pipeline_deployment(sides: "Sequence[_Side]", schedule: tuple[str, ...],
                         bytes_at: np.ndarray, stages: list[Stage] | None,
                         link: NetworkLink) -> Deployment:
    """One DP chain as a Deployment: each stage holds its DP stage exactly
    (ops, compute, outgoing transfer) plus the crossing bytes and its
    device's pricing (active power, idle power, session init)."""
    if stages is None:
        raise ValueError("no feasible partition found")
    return Deployment(kind="pipeline", link=link.name, stages=tuple(
        StageSpec(scenario=side.scenario,
                  op_names=schedule[start:end],
                  compute_s=compute_s,
                  transfer_s=transfer_s,
                  transfer_bytes=(0 if end == len(schedule)
                                  else int(bytes_at[end])),
                  **side.pricing)
        for side, (start, end, compute_s, transfer_s) in zip(sides, stages)))


def _homogeneous_pipelines(side: _Side, link: NetworkLink,
                          max_depth: int) -> Iterator[Deployment]:
    """Pipelines of 2..``max_depth`` copies of one device (capped at the
    op count), shallowest first, from one schedule, prefix, transfer
    column and DP sweep; a depth that cannot be lowered raises
    ``ValueError`` after the shallower ones were yielded."""
    schedule = tuple(op.name for op in side.graph.schedulable_ops())
    depth = min(max_depth, len(schedule))
    if depth < 2:
        return
    bytes_at = side.graph.table.cut_bytes
    chains = _partition([_prefix_latency(side.plan)] * depth,
                        link.transfer_time_s(bytes_at))
    for length, stages in enumerate(chains[1:], start=2):
        yield _pipeline_deployment([side] * length, schedule, bytes_at,
                                   stages, link)


def lower_pipeline(scenarios: "Sequence[Scenario]", link: NetworkLink | str, *,
                   runner: "Runner | None" = None) -> Deployment:
    """Lower an ordered chain of scenarios to a pipelined Deployment.

    Partitions the chain over the plans of the scenarios' own runner
    sessions (one per device position, so heterogeneous chains are fine):
    each device's prefix is one ``cumsum`` of its plan's latencies and
    each cut's transfer is priced from the graph's crossing sizes.  The
    full chain's stages come from the DP sweep; each stage holds its DP
    stage exactly (ops, compute, outgoing transfer) plus the crossing
    bytes and the per-device pricing (active power, idle power, session
    init) a served stage needs.
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
    schedule = _chain_schedule([side.graph for side in sides])
    if len(sides) > len(schedule):
        raise ValueError(f"cannot spread {len(schedule)} ops over "
                         f"{len(sides)} devices")
    bytes_at = sides[0].graph.table.cut_bytes
    chains = _partition([_prefix_latency(side.plan) for side in sides],
                        link.transfer_time_s(bytes_at))
    return _pipeline_deployment(sides, schedule, bytes_at, chains[-1], link)
