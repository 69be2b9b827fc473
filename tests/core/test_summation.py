"""Float totals: one left-to-right definition on every Python version.

Python 3.12 made ``sum()`` over floats compensated (Neumaier); 3.11 adds
left to right, as NumPy's ``cumsum`` does.  ``python312_sum`` below is
CPython 3.12's algorithm written out, so that the 3.12 behaviour can be
checked on any interpreter: with it patched in for ``builtins.sum``, the
experiments, a fleet report and a placement frontier must come out
exactly as they do unpatched.
"""

from __future__ import annotations

import builtins
import math
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.summation import serial_sum, serial_sum_array
from repro.engine import calibration
from repro.engine.cache import clear_caches
from repro.harness.suite import compare_results, export_results, load_results
from repro.runtime import Scenario

BASELINE = Path(__file__).resolve().parents[1] / "data" / "baseline_snapshot.json"
_LONG = range(-2**63, 2**63)


def python312_sum(iterable, /, start=0):
    """CPython 3.12's ``sum()``: exact integers, then Neumaier-compensated
    floats, then generic ``+`` for anything else."""
    iterator = iter(iterable)
    result = start
    if type(result) is int:
        for item in iterator:
            result = result + item
            if type(item) not in (int, bool):
                break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in iterator:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif type(item) in (int, bool) and item in _LONG:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in iterator:
        result = result + item
    return result


#: Experiments with cells that a compensated ``sum()`` moved before every
#: float total went through :mod:`repro.core.summation`.
MOVED = ("fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
         "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
         "fig14-curves", "ext-batch", "ext-batch-serving", "ext-pareto",
         "ext-pipeline", "ext-power-modes", "ext-pruning", "ext-rnn",
         "ext-serving", "ext-split", "ext-sustained")

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


class TestSerialSum:
    @given(st.lists(st.one_of(_FLOATS, st.sampled_from([0.0, -0.0, 1e16]))))
    @settings(max_examples=200, deadline=None)
    def test_adds_left_to_right_from_zero(self, values):
        expected = 0
        for value in values:
            expected = expected + value
        assert repr(serial_sum(values)) == repr(expected)
        with np.errstate(over="ignore"):  # an overflowing total is inf
            total = serial_sum_array(np.array(values, dtype=float))
        assert repr(total) == repr(float(expected))

    def test_differs_from_a_compensated_sum(self):
        values = [0.1] * 10
        assert serial_sum(values) == 0.9999999999999999
        assert serial_sum_array(np.array(values)) == 0.9999999999999999
        assert python312_sum(values) == 1.0
        assert python312_sum([1e16, 1.0, -1e16]) == 1.0
        assert serial_sum([1e16, 1.0, -1e16]) == 0.0

    def test_signed_zeros_and_empty_input(self):
        assert repr(serial_sum([-0.0, -0.0])) == "0.0"
        assert repr(serial_sum_array(np.array([-0.0, -0.0]))) == "0.0"
        assert serial_sum([]) == 0 and serial_sum_array(np.array([])) == 0.0

    @pytest.mark.parametrize("values, start, expected", [
        # (arguments, CPython 3.12.1's sum()), where 3.11's sum() differs
        ([-1, -7.84356617963285e-05, 4.531055945688356e-06,
          2.1899262494265415e-15], 0, -1.0000739046058487),
        ([37405529.38526203, 24.644838686197936, 0, 5e-324,
          -6727603.042471733], -0.0, 30677950.98762898),
        ([6.895409583949001e+17, -86.22742440384536,
          -3.5503751065967123e+17], 0, 3.345034477352288e+17),
        ([8.509995798333994e-15, 5.071116358759047e-09,
          6.745845815997676e-19, -3.4527028880626535e-19,
          2.727354524716017e-16], 3, 3.000000005071125),
    ])
    def test_emulation_matches_cpython_312(self, values, start, expected):
        assert python312_sum(values, start) == expected
        assert reduce(add, values, start) != expected


def _fleet_report() -> str:
    from repro import fleet
    from repro.distribution import lower_pipeline

    nano = Scenario("ResNet-18", "Jetson Nano", "TensorRT")
    pools = [
        fleet.PoolSpec(name="nano", replicas=3, max_batch=4, scenario=nano),
        fleet.PoolSpec(name="pi", replicas=2, scenario=Scenario(
            "ResNet-18", "Raspberry Pi 3B", "TFLite")),
        fleet.PoolSpec.from_deployment(
            "pipe", lower_pipeline((nano,) * 3, "lan"), replicas=2),
    ]
    simulation = fleet.FleetSimulation(pools, epochs=64)
    arrivals = np.cumsum(np.random.default_rng(3).exponential(1 / 150, 3000))
    return simulation.run(arrivals, seed=3).to_json()


def _frontiers() -> list[dict]:
    from repro.placement import search_placements

    return [search_placements(model, remote_devices=("GTX Titan X",)).to_dict()
            for model in ("ResNet-18", "MobileNet-v2", "TinyYolo")]


@pytest.fixture
def compensated_sum(monkeypatch):
    """``builtins.sum`` as on Python 3.12, every memo cold before and
    after (calibration fits included)."""
    clear_caches()
    calibration._fit.cache_clear()
    monkeypatch.setattr(builtins, "sum", python312_sum)
    yield
    monkeypatch.undo()
    clear_caches()
    calibration._fit.cache_clear()


class TestPython312Sum:
    def test_moved_experiments_equal_the_baseline(self, compensated_sum):
        baseline = load_results(BASELINE)
        expected = {"snapshot_version": baseline["snapshot_version"],
                    "experiments": {experiment: baseline["experiments"][experiment]
                                    for experiment in MOVED}}
        snapshot = export_results(list(MOVED))
        assert compare_results(expected, snapshot, rel_tolerance=0.0) == []

    def test_fleet_report_and_frontiers_equal_the_unpatched_run(
            self, monkeypatch):
        clear_caches()
        expected = _fleet_report(), _frontiers()
        clear_caches()
        calibration._fit.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", python312_sum)
            compensated = _fleet_report(), _frontiers()
        clear_caches()
        calibration._fit.cache_clear()
        assert compensated[0] == expected[0]
        assert compensated[1] == expected[1]
