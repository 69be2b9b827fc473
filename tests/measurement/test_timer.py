"""Timing-loop methodology tests (Section V)."""

import pytest

from repro.measurement.timer import (
    InferenceTimer,
    MAX_RUNS,
    MIN_RUNS,
    choose_run_count,
)


class TestChooseRunCount:
    def test_fast_models_get_max_runs(self):
        assert choose_run_count(0.003) == MAX_RUNS

    def test_slow_models_get_min_runs(self):
        assert choose_run_count(16.5) == MIN_RUNS

    def test_mid_range_scales_with_budget(self):
        count = choose_run_count(0.1)  # 60s budget -> 600 runs
        assert MIN_RUNS < count < MAX_RUNS
        assert count == 600

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            choose_run_count(0.0)

    @pytest.mark.parametrize("latency_s", [float("inf"), float("nan")])
    def test_rejects_non_finite(self, latency_s):
        with pytest.raises(ValueError, match=f"finite number > 0, got {latency_s}"):
            choose_run_count(latency_s)


class TestInferenceTimer:
    def test_measurement_close_to_model_latency(self, session_factory):
        session = session_factory("ResNet-18", "Jetson TX2", "PyTorch")
        measurement = InferenceTimer(seed=1).measure(session)
        assert float(measurement) == pytest.approx(session.latency_s, rel=0.05)

    def test_deterministic_for_same_seed(self, session_factory):
        session = session_factory("ResNet-18", "Jetson TX2", "PyTorch")
        first = InferenceTimer(seed=42).measure(session, n_runs=200)
        second = InferenceTimer(seed=42).measure(session, n_runs=200)
        assert float(first) == float(second)

    def test_different_seeds_differ(self, session_factory):
        session = session_factory("ResNet-18", "Jetson TX2", "PyTorch")
        first = InferenceTimer(seed=1).measure(session, n_runs=200)
        second = InferenceTimer(seed=2).measure(session, n_runs=200)
        assert float(first) != float(second)

    def test_jitter_has_expected_spread(self, session_factory):
        session = session_factory("ResNet-18", "Jetson TX2", "PyTorch")
        measurement = InferenceTimer(seed=0, jitter_fraction=0.02).measure(
            session, n_runs=1000)
        assert measurement.stddev / measurement.value == pytest.approx(0.02, rel=0.3)

    def test_run_count_respects_section_v_range(self, session_factory):
        session = session_factory("VGG16", "Raspberry Pi 3B", "PyTorch")
        measurement = InferenceTimer(seed=0).measure(session)
        assert MIN_RUNS <= measurement.samples <= MAX_RUNS

    @pytest.mark.parametrize("latency_s", [float("inf"), float("nan")])
    @pytest.mark.parametrize("n_runs", [None, 200])
    def test_non_finite_latency_rejected(self, latency_s, n_runs):
        with pytest.raises(ValueError, match=f"finite.*got {latency_s}"):
            InferenceTimer().measure_latency(latency_s, n_runs)

    def test_invalid_run_count(self, session_factory):
        session = session_factory("ResNet-18", "Jetson TX2", "PyTorch")
        with pytest.raises(ValueError):
            InferenceTimer().measure(session, n_runs=0)

    def test_measure_with_init_separates_one_time_cost(self, session_factory):
        session = session_factory("ResNet-18", "Jetson TX2", "PyTorch")
        init_s, measurement = InferenceTimer(seed=0).measure_with_init(session)
        assert init_s == session.init_time_s
        assert init_s > float(measurement)  # init excluded from the loop
