"""Unit annotation names, SI-prefix constants and presentation helpers.

The paper mixes ms, s, mJ, J, W and GB freely; internally this library works
in SI base units (seconds, joules, watts, bytes, hertz, degrees Celsius) and
converts only at the presentation layer.

``Seconds``, ``Watts`` and ``Celsius`` are plain aliases of ``float``, used
only as annotation names (``def latency(self) -> Seconds``): a value so
annotated is a float in base SI units and costs nothing at runtime.  The
static units checker (:mod:`repro.check.units`) maps each annotation name to
its dimension (:data:`repro.check.unit_maps.ANNOTATION_DIMS`) and proves the
dataflow at check time; nothing is checked at runtime.
"""

from __future__ import annotations

MILLI = 1e-3
MICRO = 1e-6
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12

KIBI = 1024
MEBI = 1024**2
GIBI = 1024**3

#: a duration in seconds.
Seconds = float
#: a power in watts.
Watts = float
#: a temperature in degrees Celsius.
Celsius = float


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with the largest binary prefix that fits."""
    value = float(num_bytes)
    for prefix, scale in (("GiB", GIBI), ("MiB", MEBI), ("KiB", KIBI)):
        if abs(value) >= scale:
            return f"{value / scale:.2f} {prefix}"
    return f"{value:.0f} B"


def format_seconds(seconds: float) -> str:
    """Render a duration in the unit the paper's figures use (ms or s)."""
    if seconds < 1.0:
        return f"{seconds / MILLI:.1f} ms"
    return f"{seconds:.2f} s"
