"""Deployment: the one type every serving layer speaks.

A model runs on one node (a :class:`~repro.runtime.scenario.Scenario`),
split across a link, or pipelined across a chain of devices; a
:class:`Deployment` is all three: an ordered tuple of :class:`StageSpec`
stages, each a contiguous slice of the model's schedulable ops on one
scenario, with the outgoing transfer cost of the cut that follows it.

The lowering rules in :mod:`repro.distribution.split` and
:mod:`repro.distribution.pipeline` emit Deployments; the placement
optimizer (:mod:`repro.placement.optimizer`) enumerates and ranks them;
``fleet.cluster`` prices a :class:`~repro.fleet.cluster.ServiceProfile`
from any of them, and ``fleet.simulate`` serves the multi-stage ones as
chained stage queues.  Single-stage Deployments degrade to the plain
scenario path, bit-identical to the pre-Deployment fleet.

A stage's *service* time is ``compute_s + transfer_s`` — the sender owns
its egress, as the pipeline DP prices a stage — so a Deployment's
end-to-end latency is the sum of stage services and its steady-state
throughput is set by the slowest stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.runtime.scenario import Scenario

#: provenance of a deployment: one node, a Neurosurgeon-style split across
#: a link, or a multi-stage pipeline.
DEPLOYMENT_KINDS = ("single", "split", "pipeline")


@dataclass(frozen=True)
class StageSpec:
    """One stage of a deployment: a slice of the model on one scenario.

    Attributes:
        scenario: where this stage runs (model/device/framework cell).
        op_names: the schedulable ops this stage executes, in order; None
            means the whole model (single-node stages).  May be empty for
            a pure transfer stage (the all-remote split's input ship).
        compute_s: engine-priced time for this stage's ops, including the
            stage's session overheads.
        transfer_s: time to ship the crossing activations to the next
            stage (0.0 for the last stage — results return in place).
        transfer_bytes: size of the crossing tensor set.
        power_w: device draw while this stage computes.
        idle_w: device draw while this stage waits.
        init_time_s: one-time session setup cost on this stage's device.
    """

    scenario: Scenario
    op_names: tuple[str, ...] | None
    compute_s: float
    transfer_s: float = 0.0
    transfer_bytes: int = 0
    power_w: float = 0.0
    idle_w: float = 0.0
    init_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.op_names is not None and not isinstance(self.op_names, tuple):
            object.__setattr__(self, "op_names", tuple(self.op_names))
        if self.compute_s < 0:
            raise ValueError(f"compute_s must be >= 0, got {self.compute_s}")
        if self.transfer_s < 0:
            raise ValueError(f"transfer_s must be >= 0, got {self.transfer_s}")
        if self.transfer_bytes < 0:
            raise ValueError(
                f"transfer_bytes must be >= 0, got {self.transfer_bytes}")

    @property
    def service_s(self) -> float:
        """Time this stage occupies per inference: compute plus egress."""
        return self.compute_s + self.transfer_s

    @property
    def energy_j(self) -> float:
        """Active energy of one inference through this stage."""
        return self.power_w * self.compute_s

    @property
    def span(self) -> str:
        """Human-readable op range ("all", "input", "op_a..op_b")."""
        if self.op_names is None:
            return "all"
        if not self.op_names:
            return "input"
        if len(self.op_names) == 1:
            return self.op_names[0]
        return f"{self.op_names[0]}..{self.op_names[-1]}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "op_names": None if self.op_names is None else list(self.op_names),
            "compute_s": self.compute_s,
            "transfer_s": self.transfer_s,
            "transfer_bytes": self.transfer_bytes,
            "power_w": self.power_w,
            "idle_w": self.idle_w,
            "init_time_s": self.init_time_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StageSpec":
        op_names = payload["op_names"]
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            op_names=None if op_names is None else tuple(op_names),
            compute_s=payload["compute_s"],
            transfer_s=payload["transfer_s"],
            transfer_bytes=payload["transfer_bytes"],
            power_w=payload["power_w"],
            idle_w=payload["idle_w"],
            init_time_s=payload["init_time_s"],
        )


@dataclass(frozen=True)
class Deployment:
    """One servable placement of a model over one or more devices.

    Attributes:
        kind: "single", "split" or "pipeline" (provenance; the serving
            semantics depend only on the stage tuple).
        stages: the ordered stage specs; one per device position.
        link: name of the :class:`~repro.distribution.network.NetworkLink`
            preset pricing the inter-stage transfers (None for single).
    """

    kind: str
    stages: tuple[StageSpec, ...]
    link: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in DEPLOYMENT_KINDS:
            raise ValueError(
                f"kind must be one of {DEPLOYMENT_KINDS}, got {self.kind!r}")
        if not isinstance(self.stages, tuple):
            object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("a deployment needs at least one stage")
        if self.kind == "single":
            if len(self.stages) != 1:
                raise ValueError("single deployments have exactly one stage")
            if self.link is not None:
                raise ValueError("single deployments carry no link")
        else:
            if len(self.stages) < 2:
                raise ValueError(f"{self.kind} deployments need >= 2 stages")
            if self.link is None:
                raise ValueError(f"{self.kind} deployments must name a link")
        if self.stages[-1].transfer_s > 0 or self.stages[-1].transfer_bytes > 0:
            raise ValueError("the last stage has no outgoing transfer")
        models = {stage.scenario.cell[0] for stage in self.stages}
        if len(models) != 1:
            raise ValueError(
                f"all stages must serve one model, got {sorted(models)}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def single(cls, scenario: Scenario, *, compute_s: float,
               power_w: float = 0.0, idle_w: float = 0.0,
               init_time_s: float = 0.0) -> "Deployment":
        """The whole model on one node — the classic fleet pool shape."""
        return cls(kind="single", link=None, stages=(StageSpec(
            scenario=scenario, op_names=None, compute_s=compute_s,
            power_w=power_w, idle_w=idle_w, init_time_s=init_time_s),))

    # -- aggregate quantities ----------------------------------------------
    @property
    def model(self) -> str:
        return self.stages[0].scenario.model

    @property
    def devices(self) -> tuple[str, ...]:
        return tuple(stage.scenario.device for stage in self.stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def is_single_node(self) -> bool:
        return len(self.stages) == 1

    @property
    def latency_s(self) -> float:
        """End-to-end latency of one inference through every stage."""
        return sum(stage.service_s for stage in self.stages)

    @property
    def bottleneck_s(self) -> float:
        """Steady-state per-replica service time: the slowest stage."""
        return max(stage.service_s for stage in self.stages)

    @property
    def throughput_rps(self) -> float:
        """Sustained inferences/s of one replica chain."""
        return 1.0 / self.bottleneck_s

    @property
    def energy_per_inference_j(self) -> float:
        """Active energy across all stages for one inference."""
        return sum(stage.energy_j for stage in self.stages)

    @property
    def key(self) -> str:
        """Canonical identity for dedup and deterministic ordering."""
        stages = ";".join(f"{stage.scenario.key}#{stage.span}"
                          for stage in self.stages)
        return f"{self.kind}|{self.link or '-'}|{stages}"

    def describe(self) -> str:
        if self.is_single_node:
            stage = self.stages[0]
            return (f"single {stage.scenario.describe()}: "
                    f"{self.latency_s * 1e3:.1f} ms, "
                    f"{self.energy_per_inference_j * 1e3:.1f} mJ")
        lines = [f"{self.kind} over {self.link}: "
                 f"{self.latency_s * 1e3:.1f} ms end-to-end, "
                 f"{self.throughput_rps:.2f} inf/s "
                 f"(bottleneck {self.bottleneck_s * 1e3:.1f} ms), "
                 f"{self.energy_per_inference_j * 1e3:.1f} mJ"]
        for position, stage in enumerate(self.stages):
            ops = ("whole model" if stage.op_names is None
                   else f"{len(stage.op_names)} ops")
            lines.append(
                f"  stage {position}: {stage.scenario.device} via "
                f"{stage.scenario.framework} [{ops}] "
                f"compute {stage.compute_s * 1e3:.1f} ms"
                + (f" + send {stage.transfer_s * 1e3:.1f} ms"
                   if stage.transfer_s > 0 else ""))
        return "\n".join(lines)

    # -- JSON round trip ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "link": self.link,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Deployment":
        return cls(
            kind=payload["kind"],
            link=payload["link"],
            stages=tuple(StageSpec.from_dict(stage)
                         for stage in payload["stages"]),
        )


__all__ = ["DEPLOYMENT_KINDS", "Deployment", "StageSpec"]
