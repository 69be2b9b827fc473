"""RunRecord: the structured result of running one Scenario.

A record carries everything a downstream consumer might re-derive from a
session — latency statistics from the paper's timing loop, the plan's
roofline decomposition, power/energy, deploy-cache provenance — plus a
failure taxonomy so Table V incompatibilities travel as data instead of
``try/except ReproError`` control flow.  Records round-trip through JSON
losslessly, which is what makes them a stable contract for sharding,
serving and multi-backend work later.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping

from repro.core.errors import (
    CompatibilityError,
    ConversionError,
    DeploymentError,
    IncompatibleModelError,
    OutOfMemoryError,
    ReproError,
    ThermalShutdownError,
    UnknownEntryError,
)
from repro.core.quantity import Seconds
from repro.core.result import Measurement
from repro.engine.executor import EngineConfig
from repro.runtime.scenario import Scenario

# Failure taxonomy: most-derived exception first, mapped to the outcome
# vocabulary the paper's Table V uses ("Memory Error", "Not Available", ...).
_FAILURE_KINDS: tuple[tuple[type[ReproError], str], ...] = (
    (OutOfMemoryError, "memory_error"),
    (ConversionError, "conversion_error"),
    (IncompatibleModelError, "incompatible_model"),
    (UnknownEntryError, "unknown_entry"),
    (DeploymentError, "deployment_error"),
    (CompatibilityError, "not_available"),
    (ThermalShutdownError, "thermal_shutdown"),
    (ReproError, "repro_error"),
)


def failure_kind(error: ReproError) -> str:
    """The taxonomy bucket for one harness error."""
    for error_type, kind in _FAILURE_KINDS:
        if isinstance(error, error_type):
            return kind
    return "repro_error"


@dataclass(frozen=True)
class FailureRecord:
    """A structured deployment/measurement failure.

    Attributes:
        kind: taxonomy bucket (``memory_error``, ``not_available``, ...).
        error_type: the Python exception class name, for exact re-raising.
        message: the exception's message.
        details: typed payload where the exception carries one (byte
            counts for OOM, temperature for thermal shutdown).
    """

    kind: str
    error_type: str
    message: str
    details: dict[str, Any]

    @classmethod
    def from_error(cls, error: ReproError) -> "FailureRecord":
        details: dict[str, Any] = {}
        if isinstance(error, OutOfMemoryError):
            details = {"required_bytes": error.required_bytes,
                       "available_bytes": error.available_bytes}
        elif isinstance(error, ThermalShutdownError):
            details = {"temperature_c": error.temperature_c}
        return cls(
            kind=failure_kind(error),
            error_type=type(error).__name__,
            message=str(error),
            details=details,
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FailureRecord":
        return cls(
            kind=payload["kind"],
            error_type=payload["error_type"],
            message=payload["message"],
            details=dict(payload.get("details", {})),
        )


@dataclass(frozen=True)
class LatencyStats:
    """Summary of one timing loop (Section V methodology)."""

    median_s: float
    samples: int
    stddev_s: float
    min_s: float
    max_s: float

    @classmethod
    def from_measurement(cls, measurement: Measurement) -> "LatencyStats":
        return cls(
            median_s=measurement.value,
            samples=measurement.samples,
            stddev_s=measurement.stddev,
            min_s=measurement.minimum,
            max_s=measurement.maximum,
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LatencyStats":
        return cls(**payload)


@dataclass(frozen=True)
class PlanBreakdown:
    """Aggregates of the session's ExecutionPlan, per single inference."""

    compute_s: float
    memory_s: float
    dispatch_s: float
    roofline_s: float
    session_overhead_s: float
    input_transfer_s: float
    op_count: int
    weight_bytes: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlanBreakdown":
        return cls(**payload)


@dataclass(frozen=True)
class Provenance:
    """How a record was produced, for auditability.

    Attributes:
        seed: the cell's measurement seed (``Scenario.seed``).
        deploy_cache: ``"hit"``/``"miss"`` through the memo layer, or
            ``"bypass"`` when the deployment could not be cached (explicit
            graph, non-default power mode, caching disabled).
        timed: whether the paper's timing loop ran (vs the noise-free
            plan latency).
        engine: the :class:`EngineConfig` switches the session ran under.
    """

    seed: int
    deploy_cache: str
    timed: bool
    engine: dict[str, Any]

    @classmethod
    def build(cls, scenario: Scenario, deploy_cache: str, timed: bool,
              config: EngineConfig) -> "Provenance":
        return cls(seed=scenario.seed, deploy_cache=deploy_cache,
                   timed=timed, engine=dict(vars(config)))

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Provenance":
        return cls(
            seed=payload["seed"],
            deploy_cache=payload["deploy_cache"],
            timed=payload["timed"],
            engine=dict(payload.get("engine", {})),
        )


RECORD_VERSION = 1


@dataclass(frozen=True)
class RunRecord:
    """The outcome of running one scenario through the Runner.

    Exactly one of two shapes: ``status == "ok"`` with measurement fields
    populated, or ``status == "failed"`` with a :class:`FailureRecord` and
    every measurement field ``None``.

    Attributes:
        latency_s: the headline seconds-per-inference — the timing loop's
            median when timed, else the noise-free plan latency.
        model_latency_s: the noise-free plan latency (always available).
        stats: timing-loop statistics when the loop ran.
        init_time_s: one-time setup cost (outside the timed loop).
        utilization: compute-unit busy fraction in [0, 1].
        power_w: total device draw while inferencing (Figure 12's x-axis).
        energy_j: measured energy per inference, when a meter was attached.
        container_overhead: latency fraction added by the container, for
            containerized scenarios.
        plan: roofline decomposition of the executed plan.
        provenance: seed, cache outcome and engine config.
        failure: the structured failure, for failed records.
    """

    scenario: Scenario
    status: str
    provenance: Provenance
    latency_s: float | None = None
    model_latency_s: float | None = None
    stats: LatencyStats | None = None
    init_time_s: float | None = None
    utilization: float | None = None
    power_w: float | None = None
    energy_j: float | None = None
    container_overhead: float | None = None
    plan: PlanBreakdown | None = None
    failure: FailureRecord | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def failed(self) -> bool:
        return not self.ok

    def latency(self) -> Seconds:
        """The headline latency, raising the structured failure if any."""
        if self.failure is not None or self.latency_s is None:
            message = self.failure.message if self.failure else "no latency recorded"
            raise ReproError(f"{self.scenario.describe()} failed: {message}")
        return self.latency_s

    def describe(self) -> str:
        if self.failed:
            assert self.failure is not None
            return (f"{self.scenario.describe()}: FAILED "
                    f"[{self.failure.kind}] {self.failure.message}")
        assert self.latency_s is not None
        return (f"{self.scenario.describe()}: "
                f"{self.latency_s * 1e3:.1f} ms/inference "
                f"(deploy cache {self.provenance.deploy_cache})")

    # -- JSON round trip ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "record_version": RECORD_VERSION,
            "scenario": self.scenario.to_dict(),
            "status": self.status,
            "latency_s": self.latency_s,
            "model_latency_s": self.model_latency_s,
            "stats": None if self.stats is None else self.stats.to_dict(),
            "init_time_s": self.init_time_s,
            "utilization": self.utilization,
            "power_w": self.power_w,
            "energy_j": self.energy_j,
            "container_overhead": self.container_overhead,
            "plan": None if self.plan is None else self.plan.to_dict(),
            "provenance": self.provenance.to_dict(),
            "failure": None if self.failure is None else self.failure.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        version = payload.get("record_version")
        if version != RECORD_VERSION:
            raise ValueError(f"unsupported record version {version!r}")
        stats = payload.get("stats")
        plan = payload.get("plan")
        failure = payload.get("failure")
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            status=payload["status"],
            latency_s=payload.get("latency_s"),
            model_latency_s=payload.get("model_latency_s"),
            stats=None if stats is None else LatencyStats.from_dict(stats),
            init_time_s=payload.get("init_time_s"),
            utilization=payload.get("utilization"),
            power_w=payload.get("power_w"),
            energy_j=payload.get("energy_j"),
            container_overhead=payload.get("container_overhead"),
            plan=None if plan is None else PlanBreakdown.from_dict(plan),
            provenance=Provenance.from_dict(payload["provenance"]),
            failure=None if failure is None else FailureRecord.from_dict(failure),
        )

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))
