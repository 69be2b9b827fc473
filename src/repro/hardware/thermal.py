"""Lumped-RC thermal model with cooling hardware (Table VI, Figure 14).

Each device is a single thermal mass: heat capacity ``c_j_per_c`` charged by
the power draw, discharging to ambient through a thermal resistance.  A fan
(when present) switches the resistance between passive and active values
with hysteresis; devices without sufficient cooling can cross their
shutdown threshold — the Raspberry Pi's fate in Figure 14.

:class:`ThermalSimulator` steps one device; :class:`ThermalArray` steps
many at once (the fleet's replicas).  Both go through :func:`rc_step_c` and
:func:`hysteresis`, so their temperatures and switch states agree bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.quantity import Celsius

DEFAULT_AMBIENT_C = 22.0


def rc_step_c(temperature_c, target_c, factor):
    """The RC node's exact step: relax towards ``target_c`` by ``factor``.

    ``factor`` is ``math.exp(-dt / tau)``.  Plain ``+ - *``, so a float and
    each element of an array round the same way.
    """
    return target_c + (temperature_c - target_c) * factor


def hysteresis(on, value, trigger, stop):
    """A switch that turns on at ``value >= trigger`` and off at
    ``value <= stop`` (``stop < trigger``); works on a bool or elementwise
    on bool arrays."""
    return (value >= trigger) | (on & (value > stop))


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal parameters of one device.

    Attributes:
        r_passive_c_per_w: junction-to-ambient resistance, fan off.
        r_active_c_per_w: resistance with the fan spinning (= passive when
            no fan is present).
        c_j_per_c: lumped heat capacity.
        has_heatsink / has_fan / heatsink_mm: Table VI cooling inventory.
        fan_trigger_c: junction temperature that starts the fan.
        fan_stop_c: temperature below which the fan stops (hysteresis).
        shutdown_c: junction temperature that trips a thermal shutdown, or
            ``None`` for devices that never trip.
        throttle_c: junction temperature at which firmware DVFS reduces the
            clock, or ``None`` for devices without a soft limit.
        throttle_stop_c: temperature below which the clock is restored.
        throttle_clock_factor: clock multiplier while throttled (< 1).
        surface_offset_c: how much cooler the camera-visible surface is than
            the junction (5-10 degC through a heatsink, Section V).
    """

    r_passive_c_per_w: float
    r_active_c_per_w: float
    c_j_per_c: float
    has_heatsink: bool = True
    has_fan: bool = False
    heatsink_mm: str = ""
    fan_trigger_c: float = 60.0
    fan_stop_c: float = 50.0
    shutdown_c: float | None = None
    throttle_c: float | None = None
    throttle_stop_c: float | None = None
    throttle_clock_factor: float = 0.6
    surface_offset_c: float = 6.0

    def __post_init__(self) -> None:
        if self.r_active_c_per_w > self.r_passive_c_per_w:
            raise ValueError("fan-on resistance cannot exceed passive resistance")
        if self.has_fan and self.fan_stop_c >= self.fan_trigger_c:
            raise ValueError("fan hysteresis requires fan_stop_c < fan_trigger_c")
        if self.throttle_c is not None:
            if not 0 < self.throttle_clock_factor < 1:
                raise ValueError("throttle_clock_factor must be in (0, 1)")
            if self.throttle_stop_c is not None and self.throttle_stop_c >= self.throttle_c:
                raise ValueError("throttle hysteresis requires throttle_stop_c < throttle_c")

    @property
    def throttle_release_c(self) -> float | None:
        """Temperature at which DVFS restores the clock (5 C under the limit
        unless ``throttle_stop_c`` says otherwise)."""
        if self.throttle_c is None or self.throttle_stop_c is not None:
            return self.throttle_stop_c
        return self.throttle_c - 5.0

    def steady_state_c(self, power_w: float, ambient_c: float = DEFAULT_AMBIENT_C,
                       fan_on: bool = False) -> float:
        """Equilibrium junction temperature at constant ``power_w``."""
        resistance = self.r_active_c_per_w if (fan_on and self.has_fan) else self.r_passive_c_per_w
        return ambient_c + power_w * resistance


@dataclass
class ThermalEvent:
    """A discrete thermal event observed during simulation."""

    time_s: float
    kind: str  # "fan_on" | "fan_off" | "shutdown"
    temperature_c: float


@dataclass
class ThermalSimulator:
    """Integrates the RC model forward in time.

    Use :meth:`step` for explicit time-stepping or :meth:`run_to_steady_state`
    for the paper's methodology ("each experiment runs until the temperature
    reaches steady-state", Section V).
    """

    spec: ThermalSpec
    ambient_c: float = DEFAULT_AMBIENT_C
    # None means "start at ambient"; resolved to a float in __post_init__.
    temperature_c: float | None = field(default=None)
    fan_on: bool = False
    throttled: bool = False
    shutdown: bool = False
    time_s: float = 0.0
    events: list[ThermalEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.temperature_c is None:
            self.temperature_c = self.ambient_c

    @property
    def resistance_c_per_w(self) -> float:
        if self.fan_on and self.spec.has_fan:
            return self.spec.r_active_c_per_w
        return self.spec.r_passive_c_per_w

    @property
    def surface_temperature_c(self) -> float:
        """What a thermal camera sees (junction minus sink/package drop)."""
        return self.temperature_c - self.spec.surface_offset_c

    def step(self, power_w: float, dt_s: float) -> Celsius:
        """Advance ``dt_s`` seconds at constant ``power_w``; returns junction C.

        Uses the exact exponential solution of the RC node over the step, so
        large steps remain stable.
        """
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        if self.shutdown:
            power_w = 0.0  # a tripped device stops drawing compute power
        target = self.ambient_c + power_w * self.resistance_c_per_w
        tau = self.resistance_c_per_w * self.spec.c_j_per_c
        self.temperature_c = rc_step_c(self.temperature_c, target, math.exp(-dt_s / tau))
        self.time_s += dt_s
        self._update_fan()
        self._update_throttle()
        self._check_shutdown()
        return self.temperature_c

    @property
    def clock_factor(self) -> float:
        """Effective clock multiplier: 1.0 unless DVFS is throttling."""
        if self.shutdown:
            return 0.0
        return self.spec.throttle_clock_factor if self.throttled else 1.0

    def _update_throttle(self) -> None:
        if self.spec.throttle_c is None:
            return
        throttled = hysteresis(self.throttled, self.temperature_c,
                               self.spec.throttle_c, self.spec.throttle_release_c)
        if throttled != self.throttled:
            self.throttled = throttled
            kind = "throttle_on" if throttled else "throttle_off"
            self.events.append(ThermalEvent(self.time_s, kind, self.temperature_c))

    def _update_fan(self) -> None:
        if not self.spec.has_fan:
            return
        fan_on = hysteresis(self.fan_on, self.temperature_c,
                            self.spec.fan_trigger_c, self.spec.fan_stop_c)
        if fan_on != self.fan_on:
            self.fan_on = fan_on
            kind = "fan_on" if fan_on else "fan_off"
            self.events.append(ThermalEvent(self.time_s, kind, self.temperature_c))

    def _check_shutdown(self) -> None:
        if self.shutdown or self.spec.shutdown_c is None:
            return
        if self.temperature_c >= self.spec.shutdown_c:
            self.shutdown = True
            self.events.append(ThermalEvent(self.time_s, "shutdown", self.temperature_c))

    def run_to_steady_state(self, power_w: float, dt_s: float = 1.0,
                            tolerance_c: float = 0.01, max_time_s: float = 7200.0,
                            ) -> list[tuple[float, float]]:
        """Step until the temperature settles (or shutdown); returns the trace.

        The trace is a list of ``(time_s, junction_temperature_c)`` samples,
        one per step, suitable for plotting Figure 14-style curves.
        """
        trace: list[tuple[float, float]] = [(self.time_s, self.temperature_c)]
        while self.time_s < max_time_s:
            before = self.temperature_c
            self.step(power_w, dt_s)
            trace.append((self.time_s, self.temperature_c))
            if self.shutdown:
                break
            target = self.ambient_c + power_w * self.resistance_c_per_w
            if abs(self.temperature_c - before) < tolerance_c and abs(
                target - self.temperature_c
            ) < 10 * tolerance_c:
                break
        return trace

    def idle_temperature_c(self, idle_power_w: float) -> float:
        """Steady idle junction temperature (fan assumed off at idle)."""
        return self.spec.steady_state_c(idle_power_w, self.ambient_c, fan_on=False)


#: What a spec-less node of a :class:`ThermalArray` steps with: no fan,
#: throttle or shutdown threshold, and finite constants.  The node is held,
#: so the temperatures computed from these are discarded.
_HELD_SPEC = ThermalSpec(r_passive_c_per_w=1.0, r_active_c_per_w=1.0,
                         c_j_per_c=1.0)


class ThermalArray:
    """:meth:`ThermalSimulator.step` for many devices at once.

    Node ``i`` follows ``specs[i]``.  A step takes ``math.exp`` once per
    distinct time constant (not ``np.exp``, which need not match it to the
    last bit) and then applies :func:`rc_step_c` and :func:`hysteresis`
    elementwise, so each live node's temperature, fan and throttle state
    equal a :class:`ThermalSimulator`'s fed the same powers.  Every node
    starts at and relaxes towards ``DEFAULT_AMBIENT_C``, the simulator's
    default.  A node that trips its shutdown stops integrating: the fleet
    pulls it from service.  A node whose spec is ``None`` (the HPC parts,
    which the paper gives no thermal data for) never heats, fans,
    throttles or shuts down: it is held at ambient from the start.

    Attributes:
        fan_events / throttle_events: per-node counts of ``fan_on`` and
            ``throttle_on`` transitions.
    """

    def __init__(self, specs: Sequence[ThermalSpec | None]):
        count = len(specs)
        self.temperature_c = np.full(count, DEFAULT_AMBIENT_C)
        self.fan_on = np.zeros(count, dtype=bool)
        self.throttled = np.zeros(count, dtype=bool)
        self.shutdown = np.zeros(count, dtype=bool)
        self.fan_events = np.zeros(count, dtype=np.int64)
        self.throttle_events = np.zeros(count, dtype=np.int64)
        # Held nodes keep their temperature through a step: the tripped
        # ones and those without a spec.  The latter step with a stand-in
        # spec whose result is discarded.
        self._held = np.array([spec is None for spec in specs], dtype=bool)
        specs = [_HELD_SPEC if spec is None else spec for spec in specs]
        # Switches a node lacks get inf thresholds: they never close.  With
        # no throttle anywhere the throttle update is skipped.
        inf = math.inf
        self.has_throttles = any(spec.throttle_c is not None for spec in specs)
        self._fan_c = [np.array([(spec.fan_trigger_c if spec.has_fan else inf)
                                 for spec in specs]),
                       np.array([(spec.fan_stop_c if spec.has_fan else inf)
                                 for spec in specs])]
        self._throttle_c = [
            np.array([inf if spec.throttle_c is None else spec.throttle_c
                      for spec in specs]),
            np.array([inf if spec.throttle_c is None else spec.throttle_release_c
                      for spec in specs])]
        self._shutdown_c = np.array([inf if spec.shutdown_c is None
                                     else spec.shutdown_c for spec in specs])
        self._throttled_slowdown = np.array(
            [1.0 / spec.throttle_clock_factor for spec in specs])
        self._r_passive = np.array([spec.r_passive_c_per_w for spec in specs])
        self._r_active = np.array([spec.r_active_c_per_w if spec.has_fan
                                   else spec.r_passive_c_per_w
                                   for spec in specs])
        # ThermalSimulator's time constant, fan off and on, as indices
        # into the distinct values.
        passive = [float(r) * spec.c_j_per_c
                   for spec, r in zip(specs, self._r_passive)]
        active = [float(r) * spec.c_j_per_c
                  for spec, r in zip(specs, self._r_active)]
        self._taus = sorted(set(passive + active))
        self._tau_passive = np.searchsorted(self._taus, passive)
        self._tau_active = np.searchsorted(self._taus, active)

    @property
    def slowdown(self) -> np.ndarray:
        """Service-time multiplier per node: ``1 / clock_factor`` while
        DVFS throttles, else 1."""
        return np.where(self.throttled, self._throttled_slowdown, 1.0)

    def step(self, power_w: np.ndarray, dt_s: float) -> np.ndarray | None:
        """Advance every live node ``dt_s`` at its ``power_w``; returns the
        mask of nodes that tripped their shutdown in this step, or None
        when none did."""
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        factors = np.array([math.exp(-dt_s / tau) for tau in self._taus])
        fan_on = self.fan_on
        factor = factors[np.where(fan_on, self._tau_active, self._tau_passive)]
        resistance = np.where(fan_on, self._r_active, self._r_passive)
        temperature_c = rc_step_c(self.temperature_c,
                                  DEFAULT_AMBIENT_C + power_w * resistance,
                                  factor)
        # A held node keeps its temperature, so its switches hold
        # (hysteresis is idempotent at a fixed value).
        np.copyto(temperature_c, self.temperature_c, where=self._held)
        self.temperature_c = temperature_c
        fan_on = hysteresis(fan_on, temperature_c, *self._fan_c)
        self.fan_events += fan_on > self.fan_on
        self.fan_on = fan_on
        if self.has_throttles:
            throttled = hysteresis(self.throttled, temperature_c,
                                   *self._throttle_c)
            self.throttle_events += throttled > self.throttled
            self.throttled = throttled
        tripped = (temperature_c >= self._shutdown_c) & ~self.shutdown
        if not tripped.any():
            return None
        self.shutdown |= tripped
        self._held |= tripped
        return tripped
