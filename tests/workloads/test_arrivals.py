"""Arrival process generators."""

import numpy as np
import pytest

from repro.workloads import (
    Arrivals,
    BurstyArrivals,
    DiurnalArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    first_n,
    reseeded,
)


class TestPeriodic:
    def test_exact_rate(self):
        times = PeriodicArrivals(30.0).generate(10.0)
        assert len(times) == 300
        assert np.allclose(np.diff(times), 1 / 30.0)

    def test_jitter_stays_sorted_and_in_horizon(self):
        times = PeriodicArrivals(30.0, jitter_fraction=0.5, seed=1).generate(10.0)
        assert np.all(np.diff(times) >= 0)
        assert times[-1] < 10.0

    def test_jittered_stream_clipped_to_both_horizon_edges(self):
        for seed in range(8):
            times = PeriodicArrivals(
                30.0, jitter_fraction=0.9, seed=seed).generate(10.0)
            assert np.all(times >= 0.0)
            assert np.all(times < 10.0)
            assert np.all(np.diff(times) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicArrivals(0.0)
        with pytest.raises(ValueError):
            PeriodicArrivals(1.0, jitter_fraction=1.0)
        with pytest.raises(ValueError):
            PeriodicArrivals(1.0).generate(0.0)


class TestPoisson:
    def test_mean_rate_converges(self):
        times = PoissonArrivals(50.0, seed=2).generate(200.0)
        assert len(times) == pytest.approx(50.0 * 200.0, rel=0.05)

    def test_sorted_within_horizon(self):
        times = PoissonArrivals(10.0, seed=3).generate(30.0)
        assert np.all(np.diff(times) >= 0)
        assert times[-1] < 30.0

    def test_deterministic_per_seed(self):
        a = PoissonArrivals(10.0, seed=4).generate(10.0)
        b = PoissonArrivals(10.0, seed=4).generate(10.0)
        assert np.array_equal(a, b)

    def test_exponential_gaps(self):
        times = PoissonArrivals(100.0, seed=5).generate(100.0)
        gaps = np.diff(times)
        # Exponential: mean == std (coefficient of variation 1).
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)


class TestBursty:
    def test_burst_multiplicity(self):
        arrivals = BurstyArrivals(burst_rate_hz=2.0, burst_size=5, seed=6)
        times = arrivals.generate(100.0)
        # Each burst instant repeats burst_size times.
        unique, counts = np.unique(times, return_counts=True)
        assert set(counts) == {5}
        assert arrivals.rate_hz == 10.0

    def test_total_rate(self):
        times = BurstyArrivals(5.0, 4, seed=7).generate(200.0)
        assert len(times) == pytest.approx(5.0 * 4 * 200.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(0.0, 2)
        with pytest.raises(ValueError):
            BurstyArrivals(1.0, 0)


class TestDiurnal:
    def test_rate_peaks_and_troughs_over_the_cycle(self):
        process = DiurnalArrivals(100.0, amplitude=0.8, period_s=100.0)
        assert process.rate_at(25.0) == pytest.approx(180.0)  # quarter cycle
        assert process.rate_at(75.0) == pytest.approx(20.0)
        assert process.peak_rate_hz == pytest.approx(180.0)
        assert process.rate_hz == 100.0

    def test_mean_rate_converges_over_whole_cycles(self):
        times = DiurnalArrivals(50.0, period_s=100.0, seed=8).generate(400.0)
        assert len(times) == pytest.approx(50.0 * 400.0, rel=0.05)

    def test_traffic_concentrates_around_the_peak(self):
        process = DiurnalArrivals(100.0, amplitude=0.9, period_s=100.0, seed=9)
        times = process.generate(100.0)
        peak_half = np.count_nonzero(times < 50.0)  # sin > 0 half-cycle
        assert peak_half > 0.7 * len(times)

    def test_zero_amplitude_degenerates_to_poisson(self):
        flat = DiurnalArrivals(40.0, amplitude=0.0, period_s=50.0, seed=10)
        poisson = PoissonArrivals(40.0, seed=10)
        assert np.array_equal(flat.generate(30.0), poisson.generate(30.0))

    def test_deterministic_and_sorted(self):
        process = DiurnalArrivals(60.0, period_s=20.0, seed=11)
        a = process.generate(60.0)
        b = process.generate(60.0)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        assert a[-1] < 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(0.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(1.0, period_s=0.0)


class TestProtocol:
    PROCESSES = [
        PeriodicArrivals(10.0, jitter_fraction=0.2, seed=1),
        PoissonArrivals(10.0, seed=1),
        BurstyArrivals(2.0, 5, seed=1),
        DiurnalArrivals(10.0, period_s=30.0, seed=1),
    ]

    @pytest.mark.parametrize("process", PROCESSES,
                             ids=lambda p: type(p).__name__)
    def test_every_process_satisfies_the_contract(self, process):
        assert isinstance(process, Arrivals)
        times = process.generate(20.0)
        assert np.all(times >= 0.0)
        assert np.all(times < 20.0)
        assert np.all(np.diff(times) >= 0)

    @pytest.mark.parametrize("process", PROCESSES,
                             ids=lambda p: type(p).__name__)
    def test_first_n_is_a_prefix_of_the_stream(self, process):
        times = first_n(process, 100)
        assert len(times) == 100
        # Regenerating over any horizon that covers the prefix agrees.
        full = process.generate(float(times[-1]) + 1.0)
        assert np.array_equal(times, full[:100])

    def test_first_n_validation(self):
        with pytest.raises(ValueError):
            first_n(PoissonArrivals(10.0), 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("build", [
        lambda v: PeriodicArrivals(v),
        lambda v: PoissonArrivals(v),
        lambda v: BurstyArrivals(v, 4),
        lambda v: DiurnalArrivals(v),
        lambda v: DiurnalArrivals(10.0, period_s=v),
    ], ids=["periodic", "poisson", "bursty", "diurnal", "diurnal-period"])
    def test_non_finite_rates_and_periods_rejected(self, build, value):
        with pytest.raises(ValueError, match="positive and finite"):
            build(value)

    @pytest.mark.parametrize("process", PROCESSES,
                             ids=lambda p: type(p).__name__)
    @pytest.mark.parametrize("horizon_s", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected(self, process, horizon_s):
        with pytest.raises(ValueError, match="horizon"):
            process.generate(horizon_s)

    def test_reseeded_changes_the_stream_only(self):
        process = PoissonArrivals(25.0, seed=3)
        other = reseeded(process, 4)
        assert isinstance(other, PoissonArrivals)
        assert other.rate_hz == process.rate_hz
        assert other.seed == 4
        assert not np.array_equal(process.generate(10.0), other.generate(10.0))
