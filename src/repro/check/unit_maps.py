"""Declarative unit conventions the units checker anchors on.

The static units pass (:mod:`repro.check.units`) infers dimensions from
three sources of truth, all declared here:

1. the unit annotation names of :mod:`repro.core.quantity` and their
   dimensions (:data:`ANNOTATION_DIMS`: ``-> Seconds`` declares a time in
   seconds, ``-> Watts`` a power in watts, ...);
2. the package-wide *unit-suffix naming convention*: an identifier whose
   trailing token(s) name a unit carries that unit — ``latency_s`` is a
   duration in seconds, ``energy_mj`` an energy in millijoules,
   ``bandwidth_bytes_per_s`` a rate, ``r_passive_c_per_w`` a thermal
   resistance;
3. the curated maps below for names the grammar cannot classify — known
   dimensionless quantities (``efficiency``, ``utilization``), identifiers
   whose trailing token merely *looks* like a unit (``_inception_c`` is an
   Inception block, not a temperature), and calls with well-known returns.

Keep this module dependency-light: it is data, not analysis.
"""

from __future__ import annotations

from repro.core.dimension import (
    BYTES,
    DIMENSIONLESS,
    ENERGY,
    ENERGY_DELAY,
    FREQUENCY,
    OPS,
    POWER,
    TEMPERATURE,
    TIME,
    Dim,
)
from repro.core.quantity import (
    GIBI,
    GIGA,
    KIBI,
    KILO,
    MEBI,
    MEGA,
    MICRO,
    MILLI,
    TERA,
)

#: unit annotation name -> dimension.  Each name is an alias of ``float``
#: in :mod:`repro.core.quantity` and declares base SI units: ``-> Seconds``
#: is seconds, never milliseconds.
ANNOTATION_DIMS: dict[str, Dim] = {
    "Seconds": TIME,
    "Watts": POWER,
    "Celsius": TEMPERATURE,
}

#: suffix token -> (dimension, presentation scale in SI units).
UNIT_TOKENS: dict[str, tuple[Dim, float]] = {
    # time
    "s": (TIME, 1.0),
    "sec": (TIME, 1.0),
    "secs": (TIME, 1.0),
    "seconds": (TIME, 1.0),
    "ms": (TIME, MILLI),
    "us": (TIME, MICRO),
    "ns": (TIME, 1e-9),
    "hr": (TIME, 3600.0),
    "hrs": (TIME, 3600.0),
    "hours": (TIME, 3600.0),
    # energy
    "j": (ENERGY, 1.0),
    "joules": (ENERGY, 1.0),
    "mj": (ENERGY, MILLI),
    "wh": (ENERGY, 3600.0),
    "kwh": (ENERGY, 3.6e6),
    # power
    "w": (POWER, 1.0),
    "watts": (POWER, 1.0),
    "mw": (POWER, MILLI),
    "kw": (POWER, KILO),
    # frequency
    "hz": (FREQUENCY, 1.0),
    "fps": (FREQUENCY, 1.0),
    "rps": (FREQUENCY, 1.0),  # requests/inferences per second
    "khz": (FREQUENCY, KILO),
    "mhz": (FREQUENCY, MEGA),
    "ghz": (FREQUENCY, GIGA),
    # temperature
    "c": (TEMPERATURE, 1.0),
    "celsius": (TEMPERATURE, 1.0),
    "degc": (TEMPERATURE, 1.0),
    # bytes
    "bytes": (BYTES, 1.0),
    "kib": (BYTES, float(KIBI)),
    "mib": (BYTES, float(MEBI)),
    "gib": (BYTES, float(GIBI)),
    # operation counts (the paper counts MACs)
    "macs": (OPS, 1.0),
    "flops": (OPS, 1.0),
    "gmacs": (OPS, GIGA),
    "gflops": (OPS, GIGA),
}

#: trailing tokens that mark a value as an explicit pure number.
DIMENSIONLESS_TOKENS = frozenset({
    "count", "counts", "efficiency", "factor", "fraction", "inferences",
    "iterations", "multiplier", "pct", "percent", "ratio", "runs",
    "samples", "share", "utilization",
})

#: single-token names too short/ambiguous to classify on their own
#: (``latency_s`` is seconds; a bare ``s`` is usually a loop variable).
AMBIGUOUS_BARE_TOKENS = frozenset({"s", "j", "w", "c", "us", "ns"})

#: compound suffixes (products, not per-ratios), matched before the grammar.
COMPOUND_SUFFIXES: dict[str, tuple[Dim, float]] = {
    "mj_ms": (ENERGY_DELAY, MILLI * MILLI),  # energy-delay product columns
    "j_s": (ENERGY_DELAY, 1.0),
}

#: bare names that are dimensionless by convention, wherever they appear.
DIMENSIONLESS_NAMES = frozenset({
    "batch_fill", "derate", "efficiency", "jitter_fraction", "occupancy",
    "relative", "sparsity", "speedup", "utilization",
})

#: identifiers whose trailing token is NOT a unit (model-builder blocks,
#: acronyms); the suffix grammar skips them entirely.
NON_QUANTITY_NAMES = frozenset({
    "_inception_b",
    "_inception_c",
    "_reduction_b",
    "ed2p",
    "from_bytes",  # int.from_bytes builds an integer, not a byte count
    "to_bytes",
})

#: names of the scale constants in :mod:`repro.core.quantity`; multiplying
#: or dividing by one is a *unit conversion* the checker tracks exactly.
SCALE_CONSTANTS: dict[str, float] = {
    "MILLI": MILLI,
    "MICRO": MICRO,
    "KILO": KILO,
    "MEGA": MEGA,
    "GIGA": GIGA,
    "TERA": TERA,
    "KIBI": float(KIBI),
    "MEBI": float(MEBI),
    "GIBI": float(GIBI),
}

#: bare numeric literals that read as unit conversions rather than physical
#: scalings; scaling by one of these makes the presentation scale unknown
#: instead of wrong (``latency * 1e3`` may produce ms — or kiloseconds).
CONVERSION_LITERALS = frozenset({
    1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12,
    float(KIBI), float(MEBI), float(GIBI),
})

#: calls with well-known returns that the suffix grammar cannot see.
#: Keyed by the call's terminal name; value is (dimension, scale) or None
#: for "known non-quantity" (strings, containers).
CALL_RETURNS: dict[str, tuple[Dim, float] | None] = {
    "perf_counter": (TIME, 1.0),
    "monotonic": (TIME, 1.0),
    "perf_counter_ns": (TIME, 1e-9),
    "monotonic_ns": (TIME, 1e-9),
    "choose_run_count": (DIMENSIONLESS, 1.0),
    "format_bytes": None,
    "format_seconds": None,
}

#: dimension-preserving reductions: the result has the dimension of the
#: first argument (or of the elements of the first argument).  A call of an
#: annotation name is ``float(...)`` itself, so it keeps its argument's unit:
#: ``Seconds(latency_ms)`` is still milliseconds.
PRESERVING_CALLS = frozenset({
    "abs", "amax", "amin", "average", "fabs", "float", "fmean", "max",
    "maximum", "mean", "median", "min", "minimum", "nanmax", "nanmean",
    "nanmin", "percentile", "pstdev", "quantile", "sorted", "std", "stdev",
    "sum", *ANNOTATION_DIMS,
})
