"""FleetStats: the SLO report of one fleet simulation.

One frozen record per run: fleet-level tail latency (p50/p99/p999
sojourn), throughput, energy per request, thermal events and drop
fractions, plus the same breakdown per pool.  Reports round-trip through
JSON losslessly and deterministically — the same pools, workload and seed
always serialize to the same bytes, which is what makes fleet runs
diffable artifacts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping

import numpy as np

REPORT_VERSION = 1


def _require(holds: bool, equation: str) -> None:
    if not holds:
        raise ValueError(f"fleet report breaks conservation: {equation}")


@dataclass(frozen=True)
class SojournSummary:
    """Latency distribution of completed requests."""

    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    p999_s: float
    max_s: float

    @classmethod
    def from_times(cls, sojourn_s: np.ndarray) -> "SojournSummary":
        if sojourn_s.size == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        p50_s, p95_s, p99_s, p999_s = np.percentile(sojourn_s,
                                                    (50, 95, 99, 99.9)).tolist()
        return cls(
            mean_s=float(sojourn_s.mean()),
            p50_s=p50_s,
            p95_s=p95_s,
            p99_s=p99_s,
            p999_s=p999_s,
            max_s=float(sojourn_s.max()),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SojournSummary":
        return cls(**payload)


@dataclass(frozen=True)
class PoolStats:
    """One pool's share of the simulation outcome.

    Attributes:
        assigned: requests the router handed this pool.
        completed: requests served to completion.
        dropped: requests lost to thermal shutdown of a replica.
        effective_max_batch: the deployable batching limit (the requested
            one, or lower if larger batches failed to deploy).
        utilization: pool-wide busy fraction (busy seconds over
            replicas x horizon).
        energy_j: total pool energy over the horizon, idle draw included.
        final_active_replicas: replicas taking traffic when the run ended.
    """

    name: str
    scenario: dict[str, Any]
    replicas: int
    effective_max_batch: int
    assigned: int
    completed: int
    dropped: int
    batches: int
    mean_batch_size: float
    max_queue_depth: int
    utilization: float
    throughput_rps: float
    sojourn: SojournSummary
    energy_j: float
    energy_per_request_j: float
    throttle_events: int
    fan_events: int
    shutdown_events: int
    final_active_replicas: int

    def __post_init__(self) -> None:
        where = f"pool {self.name!r}: "
        _require(min(self.assigned, self.completed, self.dropped) >= 0,
                 where + "assigned, completed, dropped >= 0")
        _require(self.assigned == self.completed + self.dropped,
                 where + "assigned == completed + dropped")

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.assigned if self.assigned else 0.0

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["sojourn"] = self.sojourn.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PoolStats":
        data = dict(payload)
        data["sojourn"] = SojournSummary.from_dict(data["sojourn"])
        data["scenario"] = dict(data["scenario"])
        return cls(**data)


@dataclass(frozen=True)
class FleetStats:
    """The outcome of one fleet simulation.

    Conservation is checked at construction (a ``ValueError`` names the
    broken equation), so a tampered JSON report fails to load:
    ``requests == completed + dropped + rejected`` fleet-wide, the fleet's
    completed and dropped are the pools' sums, ``sum(assigned) + rejected
    == requests``, and ``assigned == completed + dropped`` within every
    pool.

    Attributes:
        rejected: requests refused at the front door (admission control);
            they were never routed to a pool.
        dropped: requests lost inside pools (thermal shutdown).
        horizon_s: wall-clock span of the run (last completion or last
            arrival, whichever is later).
        energy_per_request_j: fleet energy (idle draw included) per
            completed request.
    """

    requests: int
    completed: int
    dropped: int
    rejected: int
    horizon_s: float
    throughput_rps: float
    sojourn: SojournSummary
    energy_j: float
    energy_per_request_j: float
    throttle_events: int
    fan_events: int
    shutdown_events: int
    scale_ups: int
    scale_downs: int
    policy: str
    seed: int
    epochs: int
    pools: tuple[PoolStats, ...]

    def __post_init__(self) -> None:
        # With conserving pools the assigned check follows from the first
        # and last; it runs before the pool sums so that the message names
        # the totals that disagree with the pools' assignments.
        _require(self.requests == self.completed + self.dropped + self.rejected,
                 "requests == completed + dropped + rejected")
        _require(self.rejected >= 0, "rejected >= 0")
        _require(sum(pool.assigned for pool in self.pools) + self.rejected
                 == self.requests, "sum(pool.assigned) + rejected == requests")
        _require(self.completed == sum(pool.completed for pool in self.pools)
                 and self.dropped == sum(pool.dropped for pool in self.pools),
                 "completed, dropped == sum over pools")

    @property
    def drop_fraction(self) -> float:
        if not self.requests:
            return 0.0
        return (self.dropped + self.rejected) / self.requests

    def meets_slo(self, deadline_s: float, percentile: float = 0.99,
                  max_drop_fraction: float = 0.0) -> bool:
        """True when the sojourn percentile fits the deadline and losses
        stay within ``max_drop_fraction``.

        A run that completed nothing never meets an SLO: its percentile
        summary is the degenerate all-zeros one (no sojourns to
        summarize), which would otherwise pass any deadline.
        """
        target = {0.5: self.sojourn.p50_s, 0.95: self.sojourn.p95_s,
                  0.99: self.sojourn.p99_s,
                  0.999: self.sojourn.p999_s}.get(percentile)
        if target is None:
            raise ValueError(f"unsupported percentile {percentile}")
        if not self.completed:
            return False
        return target <= deadline_s and self.drop_fraction <= max_drop_fraction

    def describe(self) -> str:
        lines = [
            f"fleet: {self.requests} requests over {self.horizon_s:.1f}s "
            f"via {self.policy} "
            f"({self.completed} completed, {self.dropped} dropped, "
            f"{self.rejected} rejected)",
            f"  throughput {self.throughput_rps:.1f} req/s; sojourn "
            f"p50 {self.sojourn.p50_s * 1e3:.1f}ms "
            f"p99 {self.sojourn.p99_s * 1e3:.1f}ms "
            f"p999 {self.sojourn.p999_s * 1e3:.1f}ms",
            f"  energy {self.energy_j:.1f}J "
            f"({self.energy_per_request_j * 1e3:.2f}mJ/request); "
            f"thermal: {self.throttle_events} throttle, "
            f"{self.fan_events} fan, {self.shutdown_events} shutdown",
        ]
        for pool in self.pools:
            lines.append(
                f"  pool {pool.name}: {pool.assigned} assigned, "
                f"util {pool.utilization:.0%}, mean batch "
                f"{pool.mean_batch_size:.1f}, p99 "
                f"{pool.sojourn.p99_s * 1e3:.1f}ms, "
                f"{pool.energy_per_request_j * 1e3:.2f}mJ/request, "
                f"{pool.final_active_replicas}/{pool.replicas} active")
        return "\n".join(lines)

    # -- JSON round trip ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "report_version": REPORT_VERSION,
            "requests": self.requests,
            "completed": self.completed,
            "dropped": self.dropped,
            "rejected": self.rejected,
            "horizon_s": self.horizon_s,
            "throughput_rps": self.throughput_rps,
            "sojourn": self.sojourn.to_dict(),
            "energy_j": self.energy_j,
            "energy_per_request_j": self.energy_per_request_j,
            "throttle_events": self.throttle_events,
            "fan_events": self.fan_events,
            "shutdown_events": self.shutdown_events,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "policy": self.policy,
            "seed": self.seed,
            "epochs": self.epochs,
            "pools": [pool.to_dict() for pool in self.pools],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FleetStats":
        version = payload.get("report_version")
        if version != REPORT_VERSION:
            raise ValueError(f"unsupported report version {version!r}")
        data = {key: value for key, value in payload.items()
                if key != "report_version"}
        data["sojourn"] = SojournSummary.from_dict(data["sojourn"])
        data["pools"] = tuple(PoolStats.from_dict(pool)
                              for pool in data["pools"])
        return cls(**data)

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FleetStats":
        return cls.from_dict(json.loads(text))
