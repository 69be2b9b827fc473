"""The measurement path's array kernels against their per-sample loops.

Every comparison is ``==``: the kernels must reproduce the loops in
``tests/measurement/reference.py`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.result import Measurement
from repro.engine.executor import ExecutionPlan
from repro.measurement.power_meter import PowerAnalyzer, USBMultimeter
from repro.measurement.timer import InferenceTimer, choose_run_count

from tests.measurement import reference

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
seconds = st.one_of(st.sampled_from([0.0, 1e-6, 3e-4]), st.floats(0.0, 1.0))


class TestSummary:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 200, 1000])
    def test_matches_loop_at_every_count(self, count):
        samples = 0.01 * np.random.default_rng(count).lognormal(0.0, 0.02, count)
        expected = reference.summarize(samples.tolist(), unit="s")
        assert Measurement.from_samples(samples, unit="s") == expected
        assert Measurement.from_samples(samples.tolist(), unit="s") == expected

    @given(st.lists(st.one_of(finite, st.sampled_from([0.0, 1.0, -2.5])),
                    min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_on_any_finite_samples(self, samples):
        # The sampled constants make ties, which the median must order
        # the same way.
        assert Measurement.from_samples(samples) == reference.summarize(samples)

    @pytest.mark.parametrize("seed", range(0, 300, 7))
    def test_timing_loops_match(self, seed):
        latency_s = float(np.exp(np.random.default_rng(seed).uniform(
            np.log(1e-4), np.log(20.0))))
        n_runs = choose_run_count(latency_s)
        expected = reference.timing_loop(latency_s, n_runs, seed)
        assert InferenceTimer(seed=seed).measure_latency(latency_s) == expected

    @pytest.mark.parametrize("seed, latency_s", [
        (394, 0.005561651685954061),
        (862, 0.2517239733364089),
        (1780, 7.4380040277733945),
        (2068, 1.1664650442083608),
    ])
    def test_squares_are_pythons_pow_not_a_multiply(self, seed, latency_s):
        # In these loops, squaring the deviations with one multiply (NumPy's
        # ``d * d``) moves the stddev by one ulp against ``d ** 2``.
        expected = reference.timing_loop(latency_s, choose_run_count(latency_s), seed)
        measured = InferenceTimer(seed=seed).measure_latency(latency_s)
        assert measured.stddev == expected.stddev
        assert measured == expected


class TestInstruments:
    @pytest.mark.parametrize("readings", [1, 10, 300])
    @pytest.mark.parametrize("seed", range(0, 50, 7))
    def test_usb_recording_matches_scalar_readings(self, seed, readings):
        def power_fn(t):
            return 0.5 + 0.01 * t

        expected = reference.record(reference.ScalarUSBMultimeter(seed), power_fn,
                                    float(readings))
        recorded = USBMultimeter(seed).record(power_fn, float(readings))
        assert recorded.dtype == np.float64
        assert recorded.tolist() == expected

    @pytest.mark.parametrize("readings", [1, 10, 300])
    @pytest.mark.parametrize("seed", range(0, 50, 7))
    def test_analyzer_recording_matches_scalar_readings(self, seed, readings):
        def power_fn(t):
            return 40.0 - 0.1 * t

        duration_s = readings * PowerAnalyzer.sample_interval_s
        expected = reference.record(reference.ScalarPowerAnalyzer(seed), power_fn,
                                    duration_s)
        recorded = PowerAnalyzer(seed).record(power_fn, duration_s)
        assert len(expected) == readings
        assert recorded.tolist() == expected

    @given(powers=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=20),
           seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_samples_continue_one_stream(self, powers, seed):
        for meter_type, scalar_type in ((USBMultimeter, reference.ScalarUSBMultimeter),
                                        (PowerAnalyzer, reference.ScalarPowerAnalyzer)):
            meter, scalar = meter_type(seed), scalar_type(seed)
            assert [meter.sample(p) for p in powers] == [scalar.sample(p) for p in powers]


def _plan(compute_s, memory_s, dispatch_s) -> ExecutionPlan:
    columns = [np.asarray(c, dtype=np.float64) for c in (compute_s, memory_s, dispatch_s)]
    return ExecutionPlan(ops=tuple(range(len(columns[0]))), op_compute_s=columns[0],
                         op_memory_s=columns[1], op_dispatch_s=columns[2])


def _totals(plan: ExecutionPlan) -> tuple:
    totals = plan._totals
    return (plan.compute_s, plan.memory_s, plan.dispatch_s, plan.roofline_s,
            totals.op_latency_s, totals.bound_roofline_s)


class TestPlanTotals:
    def test_empty_plan(self):
        plan = _plan([], [], [])
        assert _totals(plan) == reference.plan_totals(
            plan.op_compute_s, plan.op_memory_s, plan.op_dispatch_s)
        assert plan.bound_fraction("compute") == 0.0

    def test_one_op_and_ties(self):
        for compute, memory in ((2e-3, 1e-3), (1e-3, 2e-3), (1e-3, 1e-3)):
            plan = _plan([compute], [memory], [1e-5])
            assert _totals(plan) == reference.plan_totals(
                plan.op_compute_s, plan.op_memory_s, plan.op_dispatch_s)
        # A tie counts as compute-bound.
        assert _plan([1e-3], [1e-3], [0.0]).bound_fraction("compute") == 1.0

    @given(st.lists(st.tuples(seconds, seconds, st.floats(0.0, 1e-3)),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_many_ops(self, ops):
        # ``seconds`` often draws one of its constants for both terms of
        # an op: ties (c == m), which count as compute-bound.
        plan = _plan(*zip(*ops))
        assert _totals(plan) == reference.plan_totals(
            plan.op_compute_s, plan.op_memory_s, plan.op_dispatch_s)

    @pytest.mark.parametrize("model, device, framework", [
        ("ResNet-18", "Jetson TX2", "PyTorch"),
        ("MobileNet-v2", "EdgeTPU", "TFLite"),
        ("VGG16", "Jetson TX2", "PyTorch"),
    ])
    def test_zoo_plans(self, session_factory, model, device, framework):
        plan = session_factory(model, device, framework).plan
        assert _totals(plan) == reference.plan_totals(
            plan.op_compute_s, plan.op_memory_s, plan.op_dispatch_s)
