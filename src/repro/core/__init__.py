"""Core utilities shared by every subsystem.

This package holds the small, dependency-free building blocks: unit
annotation names and SI-prefix constants, error types, generic registries,
result containers, and the experiment type the harness registers.
"""

from repro.core.errors import (
    CompatibilityError,
    ConversionError,
    DeploymentError,
    IncompatibleModelError,
    OutOfMemoryError,
    ReproError,
    ThermalShutdownError,
    UnknownEntryError,
)
from repro.core.dimension import Dim
from repro.core.experiment import Experiment
from repro.core.quantity import (
    GIGA,
    KIBI,
    MEBI,
    GIBI,
    MEGA,
    KILO,
    MILLI,
    MICRO,
    Celsius,
    Seconds,
    Watts,
    format_bytes,
    format_seconds,
)
from repro.core.registry import Registry
from repro.core.result import Measurement, ResultRow, ResultTable

__all__ = [
    "Celsius",
    "CompatibilityError",
    "ConversionError",
    "DeploymentError",
    "Dim",
    "Experiment",
    "GIBI",
    "GIGA",
    "IncompatibleModelError",
    "KIBI",
    "KILO",
    "MEBI",
    "MEGA",
    "MICRO",
    "MILLI",
    "Measurement",
    "OutOfMemoryError",
    "Registry",
    "ReproError",
    "ResultRow",
    "ResultTable",
    "Seconds",
    "ThermalShutdownError",
    "UnknownEntryError",
    "Watts",
    "format_bytes",
    "format_seconds",
]
