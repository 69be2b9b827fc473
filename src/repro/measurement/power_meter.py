"""Power instruments (Section V).

Two meters, matching the paper's bench:

* :class:`USBMultimeter` — for USB-powered devices; records voltage and
  current once per second with accuracies of +/-(0.05% + 2 digits) and
  +/-(0.1% + 4 digits) respectively.
* :class:`PowerAnalyzer` — for outlet-powered devices; +/-0.005 W.

Both sample a caller-provided ``power_fn(t) -> watts`` so the same
instrument can watch an idle device, an inference loop, or a thermal
soak run.  ``record`` returns the readings (watts) as one float64 array,
drawing its noise in one call in the order one-by-one ``sample`` calls
would draw it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

USB_VOLTAGE = 5.0
VOLTAGE_DIGIT = 0.01  # last display digit of the voltage readout (V)
CURRENT_DIGIT = 0.001  # last display digit of the current readout (A)


class _Instrument:
    """A seeded meter; ``_readings`` is its one reading formula."""

    sample_interval_s: float

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def sample(self, true_power_w: float) -> float:
        """One reading of a true draw."""
        return float(self._read([true_power_w])[0])

    def record(self, power_fn: Callable[[float], float], duration_s: float) -> np.ndarray:
        """Readings of ``power_fn(t)`` every ``sample_interval_s`` from
        ``t = 0`` up to (not including) ``duration_s``."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        times = np.arange(0.0, duration_s, self.sample_interval_s).tolist()
        return self._read([power_fn(t) for t in times])

    def _read(self, true_power_w: list[float]) -> np.ndarray:
        powers = np.array(true_power_w, dtype=np.float64)
        valid = np.isfinite(powers) & (powers >= 0)
        if not valid.all():
            raise ValueError("power must be a finite number >= 0, "
                             f"got {float(powers[np.argmin(valid)])}")
        return self._readings(powers)


class USBMultimeter(_Instrument):
    """UM25C-style USB power meter: 1 Hz sampling, datasheet accuracy."""

    sample_interval_s = 1.0

    def _readings(self, true_power_w: np.ndarray) -> np.ndarray:
        """Voltage and current read independently, each +/-(relative% of
        reading + N digits); per reading, the voltage is drawn first."""
        current = true_power_w / USB_VOLTAGE
        bounds = np.empty(2 * current.size)
        bounds[0::2] = USB_VOLTAGE * 0.0005 + 2 * VOLTAGE_DIGIT
        bounds[1::2] = np.abs(current) * 0.001 + 4 * CURRENT_DIGIT
        noise = self._rng.uniform(-bounds, bounds)
        return (USB_VOLTAGE + noise[0::2]) * (current + noise[1::2])


class PowerAnalyzer(_Instrument):
    """Outlet power analyzer: +/-0.005 W accuracy, 10 Hz sampling."""

    sample_interval_s = 0.1
    accuracy_w = 0.005

    def _readings(self, true_power_w: np.ndarray) -> np.ndarray:
        noise = self._rng.uniform(-self.accuracy_w, self.accuracy_w, true_power_w.size)
        return true_power_w + noise


def average_power_w(readings: np.ndarray) -> float:
    """Mean power over a recording."""
    if len(readings) == 0:
        raise ValueError("cannot average an empty recording")
    return float(np.mean(readings))
