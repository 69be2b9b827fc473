"""Power instrument accuracy models."""

import numpy as np
import pytest

from repro.measurement.power_meter import (
    PowerAnalyzer,
    USBMultimeter,
    average_power_w,
)


def _recorded_times(meter, duration_s: float) -> tuple[np.ndarray, list[float]]:
    """A recording of a constant 1 W draw, and the instants it was read at."""
    times: list[float] = []

    def power_fn(t: float) -> float:
        times.append(t)
        return 1.0

    return meter.record(power_fn, duration_s), times


class TestUSBMultimeter:
    def test_reading_within_datasheet_bounds(self):
        meter = USBMultimeter(seed=0)
        true_power = 2.73
        for _ in range(200):
            reading = meter.sample(true_power)
            # Worst case: voltage and current bounds compound.
            assert reading == pytest.approx(true_power, abs=0.05)

    def test_one_hertz_sampling(self):
        readings, times = _recorded_times(USBMultimeter(seed=0), 10.0)
        assert readings.shape == (10,) and readings.dtype == np.float64
        assert times == pytest.approx(list(range(10)))

    def test_tracks_time_varying_power(self):
        readings = USBMultimeter(seed=0).record(lambda t: 1.0 + t, duration_s=5.0)
        powers = readings.tolist()
        assert powers == sorted(powers)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            USBMultimeter().sample(-1.0)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            USBMultimeter().record(lambda t: 1.0, duration_s=0.0)

    def test_seeded_reproducibility(self):
        a = USBMultimeter(seed=5).sample(2.0)
        b = USBMultimeter(seed=5).sample(2.0)
        assert a == b


class TestPowerAnalyzer:
    def test_five_milliwatt_accuracy(self):
        meter = PowerAnalyzer(seed=0)
        for _ in range(200):
            assert meter.sample(100.0) == pytest.approx(100.0, abs=0.005)

    def test_ten_hertz_sampling(self):
        readings, times = _recorded_times(PowerAnalyzer(seed=0), 1.0)
        assert len(readings) == 10
        assert times == pytest.approx([0.1 * k for k in range(10)])

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PowerAnalyzer().sample(-0.1)

    @pytest.mark.parametrize("power_w", [float("nan"), float("inf"), -0.1])
    def test_recording_rejects_impossible_power(self, power_w):
        for meter in (PowerAnalyzer(), USBMultimeter()):
            with pytest.raises(ValueError, match="finite number >= 0"):
                meter.record(lambda t: power_w, duration_s=1.0)


class TestAveragePower:
    def test_mean_of_recording(self):
        readings = PowerAnalyzer(seed=0).record(lambda t: 10.0, duration_s=5.0)
        assert average_power_w(readings) == pytest.approx(10.0, abs=0.01)

    def test_empty_recording_rejected(self):
        with pytest.raises(ValueError):
            average_power_w([])
        with pytest.raises(ValueError):
            average_power_w(np.array([]))
