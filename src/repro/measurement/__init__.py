"""Measurement instruments and methodology (Section V).

Simulated equivalents of the paper's bench equipment: the timing loop that
runs 200-1000 single-batch inferences and excludes initialization, the USB
digital multimeter and outlet power analyzer with their stated accuracies,
the energy integration, and the FLIR One thermal camera.  A timing loop is
summarized, and a meter ``record``-ed, as one float64 array of samples.
"""

from repro.measurement.energy import EnergyMeter, measure_energy_per_inference
from repro.measurement.power_meter import PowerAnalyzer, USBMultimeter
from repro.measurement.thermal_camera import ThermalCamera, ThermalReading
from repro.measurement.timer import InferenceTimer, choose_run_count

__all__ = [
    "EnergyMeter",
    "InferenceTimer",
    "PowerAnalyzer",
    "ThermalCamera",
    "ThermalReading",
    "USBMultimeter",
    "choose_run_count",
    "measure_energy_per_inference",
]
