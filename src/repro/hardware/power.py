"""Device power model.

The paper reports measured idle and average (under DNN load) power for each
platform (Table III).  We model instantaneous power as idle plus a
utilization-proportional active component, which reproduces both numbers:
idle with utilization 0, the Table III average with the engine's typical
utilization while inferencing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.quantity import Watts


@dataclass(frozen=True)
class PowerModel:
    """Linear utilization-to-power map.

    Attributes:
        idle_w: power with no inference running (Table III "Idle Power").
        active_w: power at full compute utilization; chosen so that the
            utilization the engine reaches under DNN load lands on Table
            III's "Average Power".
    """

    idle_w: float
    active_w: float

    def __post_init__(self) -> None:
        if self.idle_w < 0 or self.active_w < self.idle_w:
            raise ValueError(
                f"need 0 <= idle ({self.idle_w}) <= active ({self.active_w})"
            )

    def power(self, utilization: float) -> Watts:
        """Instantaneous draw in watts at ``utilization`` in [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        return self.idle_w + utilization * (self.active_w - self.idle_w)

    @property
    def dynamic_range_w(self) -> float:
        return self.active_w - self.idle_w
