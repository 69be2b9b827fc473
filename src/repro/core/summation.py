"""Float totals with one definition on every supported Python.

Python 3.11's ``sum()`` adds floats left to right, as NumPy's ``cumsum``
and the engine's array kernels do; from 3.12 it compensates (Neumaier), so
the same ``sum()`` gives a total a last bit apart on the two interpreters
and from the kernels that reproduce it.  Every float total in the package
goes through one of these two functions instead.  Integer counts stay on
``sum()``, which is exact on every version.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable

import numpy as np


def serial_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0: Python 3.11's ``sum()``."""
    return reduce(add, values, 0)


def serial_sum_array(values: np.ndarray) -> float:
    """:func:`serial_sum` of a float array, from one sequential ``cumsum``
    (``np.sum`` adds pairwise); 0.0 for an empty array."""
    if not values.size:
        return 0.0
    # ``+ 0.0`` turns a -0.0 total into 0.0, as sum()'s integer start does.
    return float(np.cumsum(values)[-1]) + 0.0


__all__ = ["serial_sum", "serial_sum_array"]
