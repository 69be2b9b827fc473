"""Test-only reference for the fleet router.

``water_fill`` finds the water level's bisection threshold directly and
replays the halvings on floats; this is the plain 64-step NumPy bisection
it replaced, kept as the oracle the fast form must match bit for bit.
"""

from __future__ import annotations

import numpy as np


def reference_bracket(count: int, base: np.ndarray,
                      limits: np.ndarray) -> tuple[float, float]:
    """``(low, high)`` after 64 halvings; ``limits`` already capped."""
    low = float(base.min())
    high = float((base + limits).max())
    for _ in range(64):
        mid = 0.5 * (low + high)
        supplied = np.clip(mid - base, 0.0, limits).sum()
        if supplied < count:
            low = mid
        else:
            high = mid
    return low, high


def reference_water_fill(count: int, base: np.ndarray,
                         limits: np.ndarray) -> np.ndarray:
    """Water-fill by evaluating the supplied amount at every halving."""
    limits = np.minimum(limits, float(count))
    total_cap = float(limits.sum())
    if total_cap <= count:
        return limits.astype(np.int64)
    _, high = reference_bracket(count, base, limits)
    exact = np.clip(high - base, 0.0, limits)
    quotas = np.floor(exact).astype(np.int64)
    shortfall = count - int(quotas.sum())
    if shortfall > 0:
        fractional = exact - quotas
        fractional = np.where(quotas < limits, fractional, -1.0)
        order = np.lexsort((np.arange(base.size), -fractional))
        quotas[order[:shortfall]] += 1
    return quotas
