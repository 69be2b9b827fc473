"""Pareto-frontier extraction for the Figure 12 scatter — and beyond.

The paper reads its time-vs-power plot qualitatively ("Movidius is the
platform with the lowest active power usage ... EdgeTPU is the platform
with the lowest inference time ... Jetson Nano resides in the middle").
This module makes that reading precise: which (platform, model) points are
non-dominated in (latency, power)?

The placement optimizer generalizes the question to N minimized axes —
(latency, energy, cost) deployments — so :func:`frontier_indices` extracts
the non-dominated subset of arbitrary objective tuples; the classic
two-axis :class:`ParetoPoint` API is the N=2 special case and is kept
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate configuration in the latency-power plane."""

    label: str
    latency_s: float
    power_w: float

    def dominates(self, other: "ParetoPoint") -> bool:
        """True if this point is at least as good on both axes and strictly
        better on at least one."""
        no_worse = (self.latency_s <= other.latency_s and self.power_w <= other.power_w)
        strictly = (self.latency_s < other.latency_s or self.power_w < other.power_w)
        return no_worse and strictly


def pareto_frontier(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated subset, sorted by latency (ascending)."""
    candidates = list(points)
    if not candidates:
        return []
    frontier = [
        point for point in candidates
        if not any(other.dominates(point) for other in candidates)
    ]
    return sorted(frontier, key=lambda p: (p.latency_s, p.power_w))


def dominated_by(point: ParetoPoint, points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """Every point that dominates ``point`` — the 'why is this off the
    frontier' explanation."""
    return [other for other in points if other.dominates(point)]


# -- N-dimensional frontier ---------------------------------------------------

def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Minimize-all dominance: ``a`` no worse on every axis, strictly
    better on at least one."""
    if len(a) != len(b):
        raise ValueError(f"objective arity mismatch: {len(a)} vs {len(b)}")
    no_worse = all(x <= y for x, y in zip(a, b))
    strictly = any(x < y for x, y in zip(a, b))
    return no_worse and strictly


#: Rows checked per block of :func:`frontier_indices`: each block's
#: comparison tables hold at most 64 x N booleans.
_BLOCK = 64


def frontier_indices(objectives: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated objective tuples, in input order.

    Every axis is minimized.  Duplicated tuples are all kept (neither
    strictly beats the other), so callers dedup by identity first if they
    want a set-like frontier.  Rows of different lengths raise
    ``ValueError``.

    One dominance matrix per block of rows: for each axis, NumPy's exact
    ``<=`` and ``<`` compare the block against every row, so a row is
    dominated exactly when :func:`dominates` says so for some other row
    (NaN compares false both ways, as in Python).
    """
    rows = [tuple(row) for row in objectives]
    if not rows:
        return []
    arity = len(rows[0])
    for row in rows:
        if len(row) != arity:
            raise ValueError(f"objective arity mismatch: {arity} vs {len(row)}")
    table = np.array(rows, dtype=float).reshape(len(rows), arity)
    kept: list[int] = []
    for lo in range(0, len(rows), _BLOCK):
        block = table[lo:lo + _BLOCK]
        no_worse = np.ones((len(block), len(rows)), dtype=bool)
        strictly = np.zeros_like(no_worse)
        for axis in range(arity):
            # [i, j]: row j against block row i on this axis.
            column, mine = table[:, axis], block[:, axis, None]
            no_worse &= column <= mine
            strictly |= column < mine
        dominated = (no_worse & strictly).any(axis=1)
        kept.extend((np.flatnonzero(~dominated) + lo).tolist())
    return kept


def frontier_points(objectives: Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
    """The non-dominated objective tuples themselves, sorted ascending."""
    rows = [tuple(row) for row in objectives]
    return sorted(rows[index] for index in frontier_indices(rows))
