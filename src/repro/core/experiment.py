"""Experiment definition.

Each reproduced figure/table is an :class:`Experiment`: a named callable
producing a :class:`~repro.core.result.ResultTable`, tagged with the paper
section/figure it reproduces.  The harness registers one per figure
(:mod:`repro.harness.registry`) and runs and times a selection of them
(:func:`repro.harness.sweep_runner.run_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.result import ResultTable


@dataclass(frozen=True)
class Experiment:
    """A reproducible experiment bound to a paper figure/table.

    Attributes:
        experiment_id: short id used by the harness, e.g. ``"fig02"``.
        paper_reference: e.g. ``"Figure 2, Section VI-A"``.
        description: one-line summary of what the paper reports.
        generator: zero-argument callable returning the result table.
    """

    experiment_id: str
    paper_reference: str
    description: str
    generator: Callable[[], ResultTable]

    def run(self) -> ResultTable:
        return self.generator()
