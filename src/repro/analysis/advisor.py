"""Deployment advisor: the paper's conclusion, operationalized.

Section IX: "we hope that the following insights ... lead users to
knowingly choose their required package (i.e., a combination of framework
and platform) for a specific edge application."  The advisor searches the
(device, framework, operating point) space for one model under the user's
constraints and ranks the feasible deployments.  Every candidate runs
through the shared :class:`repro.runtime.Runner`, so the search space is a
list of scenarios and Table V failures are skipped as failure records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.quantity import check_bounds
from repro.hardware import list_operating_points
from repro.models import load_model
from repro.runtime import BEST_FRAMEWORK_CANDIDATES, Scenario, default_runner

EDGE_DEVICES = tuple(BEST_FRAMEWORK_CANDIDATES)

_RUNNER = default_runner()


@dataclass(frozen=True)
class Requirements:
    """Constraints a deployment must satisfy; ``None`` leaves an axis
    unconstrained, and every bound that is set must be finite and > 0."""

    deadline_s: float | None = None
    power_budget_w: float | None = None
    energy_budget_j: float | None = None

    def __post_init__(self) -> None:
        check_bounds("requirement", vars(self))

    def check(self, latency_s: float, power_w: float,
              energy_j: float) -> tuple[bool, str]:
        """(feasible, reason-if-not)."""
        if self.deadline_s is not None and latency_s > self.deadline_s:
            return False, f"misses {self.deadline_s * 1e3:.0f} ms deadline"
        if self.power_budget_w is not None and power_w > self.power_budget_w:
            return False, f"exceeds {self.power_budget_w:.1f} W budget"
        if self.energy_budget_j is not None and energy_j > self.energy_budget_j:
            return False, f"exceeds {self.energy_budget_j * 1e3:.0f} mJ/inference"
        return True, ""


@dataclass(frozen=True)
class Recommendation:
    """One evaluated deployment."""

    device: str
    framework: str
    operating_point: str
    latency_s: float
    power_w: float
    energy_j: float
    feasible: bool
    reason: str = ""

    def describe(self) -> str:
        mode = f" @ {self.operating_point}" if self.operating_point != "default" else ""
        verdict = "OK" if self.feasible else f"rejected ({self.reason})"
        return (f"{self.device}{mode} via {self.framework}: "
                f"{self.latency_s * 1e3:.1f} ms, {self.power_w:.2f} W, "
                f"{self.energy_j * 1e3:.1f} mJ — {verdict}")


def recommend_deployments(
    model_name: str,
    requirements: Requirements,
    devices: tuple[str, ...] = EDGE_DEVICES,
    include_operating_points: bool = True,
) -> list[Recommendation]:
    """Evaluate the search space; feasible results first, by energy.

    Deployment failures (Table V territory) are silently skipped — they
    are not *rejections*, the configuration simply does not exist.
    """
    load_model(model_name)  # unknown models fail fast, before the sweep
    recommendations: list[Recommendation] = []
    for device_name in devices:
        points = list_operating_points(device_name)
        if not include_operating_points:
            points = points[:1]
        for point in points:
            for framework_name in BEST_FRAMEWORK_CANDIDATES.get(
                    device_name, ("PyTorch",)):
                record = _RUNNER.run(
                    Scenario(model_name, device_name, framework_name,
                             power_mode=point.name),
                    use_timer=False)
                if record.failed:
                    continue
                latency = record.model_latency_s
                power = record.power_w
                energy = power * latency
                feasible, reason = requirements.check(latency, power, energy)
                recommendations.append(Recommendation(
                    device=device_name,
                    framework=framework_name,
                    operating_point=point.name,
                    latency_s=latency,
                    power_w=power,
                    energy_j=energy,
                    feasible=feasible,
                    reason=reason,
                ))
    recommendations.sort(key=lambda r: (not r.feasible, r.energy_j))
    return recommendations


def best_deployment(model_name: str, requirements: Requirements,
                    **kwargs) -> Recommendation | None:
    """The lowest-energy feasible deployment, or None."""
    for recommendation in recommend_deployments(model_name, requirements, **kwargs):
        if recommendation.feasible:
            return recommendation
    return None


def recommend_placements(model_name: str, requirements: Requirements, *,
                         link: str = "wifi",
                         devices: tuple[str, ...] = EDGE_DEVICES,
                         remote_devices: tuple[str, ...] = (),
                         max_pipeline_depth: int = 3):
    """The multi-device counterpart of :func:`recommend_deployments`.

    Maps the advisor's :class:`Requirements` onto the placement
    optimizer's SLO and returns its
    :class:`~repro.placement.optimizer.PlacementFrontier`: single nodes,
    splits and pipelines ranked together.  (The power budget has no
    placement analogue — a multi-stage deployment has one draw per
    stage — so it maps to nothing; use the energy budget instead.)
    """
    # Imported lazily: repro.placement imports this package's pareto
    # module at import time, so a top-level import here would cycle.
    from repro.placement import SLO, search_placements

    slo = SLO(deadline_s=requirements.deadline_s,
              max_energy_j=requirements.energy_budget_j)
    return search_placements(
        model_name, edge_devices=devices, remote_devices=remote_devices,
        link=link, slo=slo, max_pipeline_depth=max_pipeline_depth,
        runner=_RUNNER)
