"""Placement optimizer: search the deployment space, emit the frontier.

Given a model, a device fleet, a link and an SLO, enumerate every
placement shape the repo can serve — the whole model on each single node,
Neurosurgeon-style splits across each ordered device pair (best cut plus
the all-remote cut), and homogeneous device pipelines up to a depth — and
price each as a :class:`~repro.placement.deployment.Deployment`.

Pricing reuses the serving stack's own machinery: single-node candidates
go through ONE :meth:`Runner.run_grid` sweep (deployments, plans and
rooflines dedup across cells).  Each device opens one runner session
for its splits, each split pair prices all its cuts as columns
(:func:`~repro.distribution.split.cut_columns`), and only the two kept
cuts are lowered to deployments.

The result is the Pareto frontier of (latency, energy, cost): latency is
the deployment's end-to-end seconds, energy its active joules per
inference summed over stages, cost the USD price of the boards it
occupies (:mod:`repro.placement.cost`).  When an SLO is given, the
frontier is drawn over the SLO-feasible candidates only — the infeasible
ones stay in ``candidates`` with their rejection reason.

Everything here is deterministic: fixed iteration orders, no wall clock,
no RNG, no sessions outside the Runner (the ARCH007 lint enforces the
first three).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.analysis.pareto import frontier_indices
from repro.core.quantity import check_bounds
from repro.placement.cost import device_price_usd
from repro.placement.deployment import Deployment
from repro.runtime.runner import (
    BEST_FRAMEWORK_CANDIDATES,
    Runner,
    default_runner,
)
from repro.runtime.scenario import Scenario

#: framework fallbacks for devices outside the edge candidates table
#: (the HPC comparison points serve as remote/cloud endpoints).
REMOTE_FRAMEWORK_CANDIDATES = ("TensorFlow", "PyTorch", "Caffe")


@dataclass(frozen=True)
class SLO:
    """Service-level objective a served placement must meet.

    Any subset of the axes may be constrained; ``None`` means
    unconstrained.  Throughput is per replica chain (the steady-state
    rate one deployment sustains), latency is end-to-end per inference.
    """

    deadline_s: float | None = None
    min_throughput_rps: float | None = None
    max_energy_j: float | None = None

    def __post_init__(self) -> None:
        check_bounds("SLO", self.to_dict())

    def check(self, deployment: Deployment) -> tuple[bool, str]:
        """(feasible, reason) for one deployment."""
        if (self.deadline_s is not None
                and deployment.latency_s > self.deadline_s):
            return False, (
                f"latency {deployment.latency_s * 1e3:.1f} ms exceeds "
                f"deadline {self.deadline_s * 1e3:.1f} ms")
        if (self.min_throughput_rps is not None
                and deployment.throughput_rps < self.min_throughput_rps):
            return False, (
                f"throughput {deployment.throughput_rps:.2f} inf/s below "
                f"required {self.min_throughput_rps:.2f} inf/s")
        if (self.max_energy_j is not None
                and deployment.energy_per_inference_j > self.max_energy_j):
            return False, (
                f"energy {deployment.energy_per_inference_j:.3f} J exceeds "
                f"budget {self.max_energy_j:.3f} J")
        return True, "meets SLO"

    def to_dict(self) -> dict[str, Any]:
        return {
            "deadline_s": self.deadline_s,
            "min_throughput_rps": self.min_throughput_rps,
            "max_energy_j": self.max_energy_j,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SLO":
        return cls(deadline_s=payload.get("deadline_s"),
                   min_throughput_rps=payload.get("min_throughput_rps"),
                   max_energy_j=payload.get("max_energy_j"))


@dataclass(frozen=True)
class PlacementCandidate:
    """One priced deployment with its optimizer objectives."""

    deployment: Deployment
    latency_s: float
    throughput_rps: float
    energy_j: float
    cost_usd: float
    meets_slo: bool
    slo_reason: str

    @property
    def objectives(self) -> tuple[float, float, float]:
        """(latency, energy, cost) — all minimized."""
        return (self.latency_s, self.energy_j, self.cost_usd)

    def to_dict(self) -> dict[str, Any]:
        return {
            "deployment": self.deployment.to_dict(),
            "latency_s": self.latency_s,
            "throughput_rps": self.throughput_rps,
            "energy_j": self.energy_j,
            "cost_usd": self.cost_usd,
            "meets_slo": self.meets_slo,
            "slo_reason": self.slo_reason,
        }


@dataclass(frozen=True)
class PlacementFrontier:
    """The optimizer's full answer for one model.

    ``candidates`` is every deduped placement, sorted by
    (latency, energy, cost); ``frontier`` is the non-dominated subset of
    the SLO-feasible ones (of everything when no SLO was given), in the
    same order.
    """

    model: str
    link: str
    slo: SLO | None
    candidates: tuple[PlacementCandidate, ...]
    frontier: tuple[PlacementCandidate, ...]

    def best(self) -> PlacementCandidate | None:
        """Lowest-latency frontier point, or None if nothing is feasible."""
        return self.frontier[0] if self.frontier else None

    def describe(self) -> str:
        lines = [f"placement frontier for {self.model} over {self.link}: "
                 f"{len(self.frontier)} of {len(self.candidates)} "
                 f"candidates non-dominated"]
        if self.slo is not None and not self.frontier:
            lines.append("  (no candidate meets the SLO)")
        for candidate in self.frontier:
            deployment = candidate.deployment
            shape = (deployment.kind if deployment.is_single_node
                     else f"{deployment.kind} x{deployment.num_stages}")
            lines.append(
                f"  [{shape}] {' + '.join(deployment.devices)}: "
                f"{candidate.latency_s * 1e3:.1f} ms, "
                f"{candidate.throughput_rps:.2f} inf/s, "
                f"{candidate.energy_j * 1e3:.1f} mJ, "
                f"${candidate.cost_usd:.0f}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "link": self.link,
            "slo": None if self.slo is None else self.slo.to_dict(),
            "candidates": [c.to_dict() for c in self.candidates],
            "frontier": [c.to_dict() for c in self.frontier],
        }


def _deployment_cost_usd(deployment: Deployment) -> float:
    return sum(device_price_usd(device) for device in deployment.devices)


def _single_node_deployments(model: str, devices: Sequence[str],
                             runner: Runner) -> list[Deployment]:
    """Price the whole model on every device in ONE run_grid sweep."""
    from repro.hardware.catalog import load_device

    grid: list[Scenario] = []
    spans: list[tuple[str, int, int]] = []
    for device in devices:
        frameworks = runner.candidates_for(
            device, default=REMOTE_FRAMEWORK_CANDIDATES)
        start = len(grid)
        grid.extend(Scenario(model=model, device=device, framework=framework)
                    for framework in frameworks)
        spans.append((device, start, len(grid)))
    # run_grid's wall-clock calls stamp compile-stage *stats* only; the
    # records it returns are seeded and bit-identical run to run.
    records = runner.run_grid(grid, use_timer=False)  # repro: allow[RACE004] perf_counter stamps stats, results deterministic

    deployments = []
    for device, start, stop in spans:
        best = None
        for record in records[start:stop]:
            if record.status != "ok":
                continue
            if best is None or record.model_latency_s < best.model_latency_s:
                best = record
        if best is None:
            continue  # device cannot serve this model at all
        deployments.append(Deployment.single(
            best.scenario,
            compute_s=best.model_latency_s,
            power_w=best.power_w,
            idle_w=load_device(device).power.idle_w,
            init_time_s=best.init_time_s,
        ))
    return deployments


def _split_deployments(model: str, edge_devices: Sequence[str],
                       all_devices: Sequence[str],
                       singles: Sequence[Deployment], link: str,
                       runner: Runner) -> list[Deployment]:
    """Best-cut and all-remote splits for every ordered device pair.

    Each side runs its single-node-best framework (already picked by the
    grid sweep), and each device's runner session is opened once per
    search.  A pair costs one :func:`~repro.distribution.split.cut_columns`
    call; the best cut is the ``argmin`` of its total column (the lowered
    ``latency_s`` bit for bit), and only the kept cuts are lowered.
    """
    from repro.distribution.network import resolve_link
    from repro.distribution.split import (
        _deployment_from_split,
        _open_side,
        cut_columns,
    )

    resolved = resolve_link(link)
    best_scenario = {d.devices[0]: d.stages[0].scenario for d in singles}
    edges = [device for device in edge_devices if device in best_scenario]
    devices = [device for device in all_devices if device in best_scenario]
    if not edges or len(devices) < 2:
        return []  # no pair: open no session
    sides = {device: _open_side(best_scenario[device], runner)
             for device in devices}
    deployments: list[Deployment] = []
    for edge_device in edges:
        edge = sides[edge_device]
        for remote_device in devices:
            if remote_device == edge_device:
                continue
            remote = sides[remote_device]
            columns = cut_columns(edge.plan, remote.plan,
                                  edge.graph.table.cut_bytes, resolved)
            best = columns.best_index()
            deployments.extend(
                _deployment_from_split(columns, index, edge, remote, resolved)
                for index in ((best,) if best == 0 else (best, 0)))
    return deployments


def _pipeline_deployments(singles: Sequence[Deployment],
                          edge_devices: Sequence[str], link: str,
                          max_depth: int, runner: Runner) -> list[Deployment]:
    """Homogeneous device pipelines, depth 2..max_depth, per edge device."""
    from repro.distribution.pipeline import lower_pipeline

    best_scenario = {d.devices[0]: d.stages[0].scenario for d in singles}
    deployments = []
    for device in edge_devices:
        scenario = best_scenario.get(device)
        if scenario is None:
            continue
        for depth in range(2, max_depth + 1):
            try:
                deployments.append(lower_pipeline(
                    [scenario] * depth, link, runner=runner))
            except ValueError:
                break  # more stages than schedulable ops
    return deployments


def search_placements(model: str, *,
                      edge_devices: Sequence[str] | None = None,
                      remote_devices: Sequence[str] = (),
                      link: str = "wifi",
                      slo: SLO | None = None,
                      max_pipeline_depth: int = 3,
                      runner: Runner | None = None) -> PlacementFrontier:
    """Enumerate, price and rank every placement of ``model``.

    Args:
        model: zoo model name.
        edge_devices: devices that may host the input-side stage
            (default: every edge platform in the candidates table).
        remote_devices: additional offload-only endpoints (HPC/cloud) —
            they join splits as the remote side and compete as single
            nodes, but never start a pipeline.
        link: NetworkLink preset name pricing every transfer.
        slo: optional feasibility gate; the frontier is drawn over the
            feasible candidates when given.
        max_pipeline_depth: deepest homogeneous pipeline to consider.
        runner: scenario runner (defaults to the process-wide one).

    Raises:
        UnknownEntryError: ``model`` is not a zoo model.
    """
    from repro.distribution.network import resolve_link
    from repro.models import MODEL_REGISTRY

    MODEL_REGISTRY.display_name(model)  # unknown models fail fast
    if runner is None:
        runner = default_runner()
    if edge_devices is None:
        edge_devices = tuple(BEST_FRAMEWORK_CANDIDATES)
    edge_devices = tuple(edge_devices)
    all_devices = edge_devices + tuple(
        device for device in remote_devices if device not in edge_devices)
    link_name = resolve_link(link).name

    singles = _single_node_deployments(model, all_devices, runner)
    deployments = list(singles)
    deployments.extend(_split_deployments(
        model, edge_devices, all_devices, singles, link_name, runner))
    deployments.extend(_pipeline_deployments(
        singles, edge_devices, link_name, max_pipeline_depth, runner))

    unique: dict[str, Deployment] = {}
    for deployment in deployments:
        unique.setdefault(deployment.key, deployment)

    candidates = []
    for deployment in unique.values():
        feasible, reason = (True, "no SLO") if slo is None \
            else slo.check(deployment)
        candidates.append(PlacementCandidate(
            deployment=deployment,
            latency_s=deployment.latency_s,
            throughput_rps=deployment.throughput_rps,
            energy_j=deployment.energy_per_inference_j,
            cost_usd=_deployment_cost_usd(deployment),
            meets_slo=feasible,
            slo_reason=reason,
        ))
    candidates.sort(key=lambda c: (c.latency_s, c.energy_j, c.cost_usd,
                                   c.deployment.key))

    pool = [c for c in candidates if c.meets_slo] if slo is not None \
        else candidates
    kept = frontier_indices([c.objectives for c in pool])
    frontier = tuple(pool[index] for index in kept)

    return PlacementFrontier(model=model, link=link_name, slo=slo,
                             candidates=tuple(candidates), frontier=frontier)


__all__ = [
    "PlacementCandidate",
    "PlacementFrontier",
    "REMOTE_FRAMEWORK_CANDIDATES",
    "SLO",
    "search_placements",
]
