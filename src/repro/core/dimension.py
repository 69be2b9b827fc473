"""A tiny dimension algebra for the paper's physical quantities.

Every headline number in the paper is a physical quantity — latencies,
energies per inference, power draws, surface temperatures, byte traffic,
MAC counts.  This module gives those quantities an *algebra*: a
:class:`Dim` is an exponent vector over five base dimensions (time,
energy, temperature, bytes, ops) closed under multiplication, division
and integer powers.  Derived dimensions fall out of the arithmetic the
pipeline actually performs::

    POWER      == ENERGY / TIME          # W  = J / s
    FREQUENCY  == DIMENSIONLESS / TIME   # Hz = 1 / s
    BANDWIDTH  == BYTES / TIME           # B/s
    THROUGHPUT == OPS / TIME             # MAC/s

The runtime never pays for this: quantities are plain floats, and
``Seconds``, ``Watts`` and ``Celsius`` (:mod:`repro.core.quantity`) are
only annotation names.  The algebra exists so the static units checker
(:mod:`repro.check.units`) can propagate dimensions through the source
at check time and reject a ms-vs-s or energy-vs-power mixup before it
corrupts a table.
"""

from __future__ import annotations

from dataclasses import dataclass

_BASES = ("time", "energy", "temperature", "bytes", "ops")


@dataclass(frozen=True)
class Dim:
    """An exponent vector over the base dimensions.

    ``Dim()`` is dimensionless; ``Dim(time=1)`` is a duration;
    ``Dim(energy=1, time=-1)`` is a power.  Instances are immutable,
    hashable and compare by value, so they work as dict keys in the
    symbol table below.
    """

    time: int = 0
    energy: int = 0
    temperature: int = 0
    bytes: int = 0
    ops: int = 0

    def __mul__(self, other: "Dim") -> "Dim":
        return Dim(**{base: getattr(self, base) + getattr(other, base)
                      for base in _BASES})

    def __truediv__(self, other: "Dim") -> "Dim":
        return Dim(**{base: getattr(self, base) - getattr(other, base)
                      for base in _BASES})

    def __pow__(self, exponent: int) -> "Dim":
        return Dim(**{base: getattr(self, base) * exponent for base in _BASES})

    @property
    def is_dimensionless(self) -> bool:
        return all(getattr(self, base) == 0 for base in _BASES)

    def __str__(self) -> str:
        symbol = SYMBOLS.get(self)
        if symbol is not None:
            return symbol
        terms = [f"{base}^{getattr(self, base)}" for base in _BASES
                 if getattr(self, base) != 0]
        return "*".join(terms) if terms else "1"


DIMENSIONLESS = Dim()
TIME = Dim(time=1)
ENERGY = Dim(energy=1)
TEMPERATURE = Dim(temperature=1)
BYTES = Dim(bytes=1)
OPS = Dim(ops=1)

POWER = ENERGY / TIME
FREQUENCY = DIMENSIONLESS / TIME
BANDWIDTH = BYTES / TIME
THROUGHPUT = OPS / TIME
ENERGY_DELAY = ENERGY * TIME
THERMAL_RESISTANCE = TEMPERATURE / POWER
HEAT_CAPACITY = ENERGY / TEMPERATURE

#: canonical presentation symbol per well-known dimension (for messages).
SYMBOLS: dict[Dim, str] = {
    DIMENSIONLESS: "1",
    TIME: "s",
    ENERGY: "J",
    TEMPERATURE: "degC",
    BYTES: "B",
    OPS: "MAC",
    POWER: "W",
    FREQUENCY: "Hz",
    BANDWIDTH: "B/s",
    THROUGHPUT: "MAC/s",
    ENERGY_DELAY: "J*s",
    THERMAL_RESISTANCE: "degC/W",
    HEAT_CAPACITY: "J/degC",
}
