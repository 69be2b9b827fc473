"""Test-only reference for the N-axis Pareto frontier.

:func:`repro.analysis.pareto.frontier_indices` compares blocks of rows as
NumPy dominance matrices; this is the pairwise loop it replaced, kept as
the oracle it must match exactly.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.pareto import dominates


def reference_frontier_indices(objectives: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the rows no other row dominates, one pair at a time."""
    rows = [tuple(row) for row in objectives]
    return [index for index, row in enumerate(rows)
            if not any(dominates(other, row) for other in rows)]
