"""Result containers for measurements and harness tables.

A :class:`Measurement` is one scalar observation with enough statistics to
support the paper's methodology (median over 200-1000 timed inferences,
instrument accuracy bounds).  A :class:`ResultTable` is the tabular form the
harness renders for each reproduced figure/table, carrying optional
paper-reported reference values alongside the measured ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.summation import serial_sum


@dataclass(frozen=True)
class Measurement:
    """A scalar observation with dispersion statistics.

    Attributes:
        value: the summary statistic (median unless stated otherwise).
        unit: presentation unit, e.g. ``"s"``, ``"J"``, ``"degC"``.
        samples: number of raw observations behind ``value``.
        stddev: sample standard deviation of the raw observations.
        minimum / maximum: extremes of the raw observations.
    """

    value: float
    unit: str = ""
    samples: int = 1
    stddev: float = 0.0
    minimum: float = math.nan
    maximum: float = math.nan

    @classmethod
    def from_samples(cls, samples: Sequence[float] | np.ndarray,
                     unit: str = "") -> "Measurement":
        """Median, sample stddev and extremes of finite samples."""
        values = np.asarray(samples, dtype=np.float64)
        count = values.size
        if count == 0:
            raise ValueError("cannot summarize an empty sample set")
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"samples must be finite, got {float(values[np.argmin(finite)])}")
        stddev = 0.0
        if count > 1:
            # A memoryview yields the floats without building a list.  The
            # squares are Python's ``d ** 2`` (libm pow): NumPy's ``d * d`` is
            # one ulp off it for about 0.1% of inputs.
            mean = math.fsum(memoryview(values)) / count
            stddev = math.sqrt(math.fsum(
                map(pow, memoryview(values - mean), repeat(2.0))) / (count - 1))
        ordered = np.sort(values)
        half = count // 2
        median = (float(ordered[half]) if count % 2
                  else (float(ordered[half - 1]) + float(ordered[half])) / 2)
        return cls(value=median, unit=unit, samples=count, stddev=stddev,
                   minimum=float(ordered[0]), maximum=float(ordered[-1]))

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        label = f"{self.value:.6g} {self.unit}".strip()
        if self.samples > 1:
            label += f" (n={self.samples}, sd={self.stddev:.3g})"
        return f"Measurement({label})"


@dataclass
class ResultRow:
    """One row of a reproduced table/figure.

    ``cells`` maps column name to value; values may be floats, strings, or
    ``None`` (rendered as the paper's "not available" marker).
    """

    label: str
    cells: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, column: str) -> Any:
        return self.cells[column]

    def get(self, column: str, default: Any = None) -> Any:
        return self.cells.get(column, default)


class ResultTable:
    """An ordered collection of rows with named columns.

    The harness builds one per figure/table; ``title`` and ``caption`` mirror
    the paper, and ``notes`` record substitutions or anchor calibrations.
    """

    def __init__(self, title: str, columns: Sequence[str], caption: str = ""):
        self.title = title
        self.columns = list(columns)
        self.caption = caption
        self.notes: list[str] = []
        self._rows: list[ResultRow] = []

    def add_row(self, label: str, **cells: Any) -> ResultRow:
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns {sorted(unknown)}; table has {self.columns}")
        row = ResultRow(label=label, cells=dict(cells))
        self._rows.append(row)
        return row

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    @property
    def rows(self) -> list[ResultRow]:
        return list(self._rows)

    def row(self, label: str) -> ResultRow:
        for candidate in self._rows:
            if candidate.label == label:
                return candidate
        raise KeyError(f"no row labelled {label!r} in table {self.title!r}")

    def column(self, name: str) -> list[Any]:
        if name not in self.columns:
            raise KeyError(f"no column {name!r} in table {self.title!r}")
        return [row.get(name) for row in self._rows]

    def labels(self) -> list[str]:
        return [row.label for row in self._rows]

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def to_records(self) -> list[dict[str, Any]]:
        """Flatten to a list of dicts (label included), e.g. for json/csv."""
        return [{"label": row.label, **row.cells} for row in self._rows]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, as used for the paper's cross-model speedup summary."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(serial_sum(math.log(v) for v in values) / len(values))
