"""Unit annotation names and presentation helpers."""

import math

from repro.core.quantity import (
    MEBI,
    Seconds,
    Watts,
    format_bytes,
    format_seconds,
)


class TestSeconds:
    def test_is_a_float(self):
        assert Seconds(1.5) + 0.5 == 2.0
        assert type(Seconds(1.5)) is float


class TestFormatting:
    def test_format_bytes_picks_prefix(self):
        assert format_bytes(2048) == "2.00 KiB"
        assert format_bytes(3 * MEBI) == "3.00 MiB"
        assert format_bytes(500) == "500 B"

    def test_format_seconds_ms_below_one_second(self):
        assert format_seconds(0.0265) == "26.5 ms"

    def test_format_seconds_seconds_above_one(self):
        assert format_seconds(6.57) == "6.57 s"


class TestOtherUnits:
    def test_quantities_work_with_math(self):
        assert math.isclose(Watts(2.0) * Seconds(3.0), 6.0)
