"""Test-only oracles for the measurement path's array kernels.

``Measurement.from_samples``, the power instruments' readings and
``ExecutionPlan._totals`` each summarize a whole array at once.  They
replaced the per-sample and per-op Python loops below, which are kept as
the oracles the kernels must match bit for bit: the same IEEE-754 double
operations in the same order, and the same random draws in the same
order.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Sequence

import numpy as np

from repro.core.result import Measurement
from repro.measurement.power_meter import CURRENT_DIGIT, USB_VOLTAGE, VOLTAGE_DIGIT


def summarize(samples: Sequence[float], unit: str = "") -> Measurement:
    """``Measurement.from_samples`` as a loop over Python floats."""
    values = [float(v) for v in samples]
    count = len(values)
    if count > 1:
        mean = math.fsum(values) / count
        stddev = math.sqrt(
            math.fsum((v - mean) ** 2 for v in values) / (count - 1))
    else:
        stddev = 0.0
    return Measurement(
        value=statistics.median(values),
        unit=unit,
        samples=count,
        stddev=stddev,
        minimum=min(values),
        maximum=max(values),
    )


def timing_loop(latency_s: float, n_runs: int, seed: int,
                jitter_fraction: float = 0.02) -> Measurement:
    """``InferenceTimer.measure_latency`` with the per-run list summarized
    by :func:`summarize`."""
    rng = np.random.default_rng(seed)
    noisy = np.full(n_runs, float(latency_s)) * rng.lognormal(
        mean=0.0, sigma=jitter_fraction, size=n_runs)
    return summarize(noisy.tolist(), unit="s")


class ScalarUSBMultimeter:
    """``USBMultimeter`` taking one scalar draw per voltage or current."""

    sample_interval_s = 1.0

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def sample(self, true_power_w: float) -> float:
        true_current = true_power_w / USB_VOLTAGE
        voltage = self._read(USB_VOLTAGE, relative=0.0005, digits=2 * VOLTAGE_DIGIT)
        current = self._read(true_current, relative=0.001, digits=4 * CURRENT_DIGIT)
        return voltage * current

    def _read(self, true_value: float, relative: float, digits: float) -> float:
        bound = abs(true_value) * relative + digits
        return true_value + self._rng.uniform(-bound, bound)


class ScalarPowerAnalyzer:
    """``PowerAnalyzer`` taking one scalar draw per reading."""

    sample_interval_s = 0.1
    accuracy_w = 0.005

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def sample(self, true_power_w: float) -> float:
        noise = self._rng.uniform(-self.accuracy_w, self.accuracy_w)
        return true_power_w + noise


def record(meter, power_fn: Callable[[float], float], duration_s: float) -> list[float]:
    """A recording as one scalar reading per sampling instant."""
    times = np.arange(0.0, duration_s, meter.sample_interval_s)
    return [meter.sample(power_fn(float(t))) for t in times]


def plan_totals(compute_s: np.ndarray, memory_s: np.ndarray,
                dispatch_s: np.ndarray) -> tuple:
    """``ExecutionPlan._totals`` as the per-op ``+=`` loop."""
    compute = memory = dispatch = roofline = op_latency = 0.0
    bound = {"compute": 0.0, "memory": 0.0}
    for c, m, d in zip(compute_s.tolist(), memory_s.tolist(), dispatch_s.tolist()):
        roof = max(c, m)
        compute += c
        memory += m
        dispatch += d
        roofline += roof
        op_latency += roof + d
        bound["compute" if c >= m else "memory"] += roof
    return compute, memory, dispatch, roofline, op_latency, bound
