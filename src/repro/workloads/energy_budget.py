"""Duty-cycled energy budgeting.

An edge deployment rarely inferences continuously: the device idles between
requests, and idle power — not inference energy — often dominates the
battery budget.  This module combines an arrival process with a session's
latency and the device's power model to produce the actual draw and battery
life, which the continuous-inference numbers of Figure 11 bracket from
above.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.executor import InferenceSession
from repro.measurement.energy import active_power_w

_DAY_HOURS = 24.0


@dataclass(frozen=True)
class EnergyBudget:
    """Energy accounting for a duty-cycled deployment."""

    device: str
    model: str
    request_rate_hz: float
    duty_cycle: float  # fraction of time inferencing
    average_power_w: float
    energy_per_request_j: float
    idle_share: float  # fraction of total energy burned while idle

    def battery_life_hours(self, battery_wh: float) -> float:
        if battery_wh <= 0:
            raise ValueError("battery capacity must be positive")
        return battery_wh / self.average_power_w

    def daily_energy_wh(self) -> float:
        return self.average_power_w * _DAY_HOURS


def duty_cycle_budget(session: InferenceSession, request_rate_hz: float) -> EnergyBudget:
    """Energy budget for serving ``request_rate_hz`` on ``session``.

    The device runs at its inference power for ``rate x latency`` of the
    time and at idle power otherwise.  Rates beyond the device's capacity
    are rejected — the queue would grow without bound (see
    :mod:`repro.fleet` for the transient story).
    """
    if request_rate_hz <= 0:
        raise ValueError("request rate must be positive")
    latency = session.latency_s
    duty = request_rate_hz * latency
    if duty > 1.0:
        raise ValueError(
            f"{request_rate_hz:.1f} req/s exceeds capacity "
            f"({1.0 / latency:.1f} req/s at {latency * 1e3:.1f} ms each)")
    device = session.deployed.device
    busy_power = active_power_w(session)
    idle_power = device.power.idle_w
    average = duty * busy_power + (1.0 - duty) * idle_power
    per_request = average / request_rate_hz
    idle_energy = (1.0 - duty) * idle_power
    return EnergyBudget(
        device=device.name,
        model=session.deployed.graph.name,
        request_rate_hz=request_rate_hz,
        duty_cycle=duty,
        average_power_w=average,
        energy_per_request_j=per_request,
        idle_share=idle_energy / average,
    )
