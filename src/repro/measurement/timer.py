"""The paper's timing methodology (Section V).

Execution time is measured by running several single-batch inferences in a
loop (200-1000 runs), excluding all initialization (library load, model
build, weight load) as a one-time device-setup cost.  Run-to-run jitter is
modelled as a small lognormal perturbation — DVFS and scheduler noise —
seeded explicitly for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quantity import check_bounds
from repro.core.result import Measurement
from repro.engine.executor import InferenceSession

MIN_RUNS = 200
MAX_RUNS = 1000
# Target wall time for one timing loop; the paper sizes run counts so slow
# devices still finish (200 runs of a 16 s VGG16 would take 55 minutes).
TARGET_LOOP_SECONDS = 60.0
DEFAULT_JITTER_FRACTION = 0.02


def choose_run_count(latency_s: float) -> int:
    """Pick the run count the paper's loop would use for this latency."""
    check_bounds("timing loop", {"latency_s": latency_s})
    by_budget = int(TARGET_LOOP_SECONDS / latency_s)
    return max(MIN_RUNS, min(MAX_RUNS, by_budget))


@dataclass
class InferenceTimer:
    """Times an :class:`InferenceSession` the way the paper does.

    Attributes:
        jitter_fraction: relative standard deviation of run-to-run noise.
        seed: RNG seed; identical seeds give identical measurements.
    """

    jitter_fraction: float = DEFAULT_JITTER_FRACTION
    seed: int = 0

    def measure(self, session: InferenceSession, n_runs: int | None = None) -> Measurement:
        """Run the timing loop and summarize it as a Measurement (seconds)."""
        return self.measure_latency(session.latency_s, n_runs)

    def measure_latency(self, latency_s: float, n_runs: int | None = None) -> Measurement:
        """Apply the timing loop to a bare latency (the compiled-grid path).

        Sessions run deterministically — every simulated inference takes
        ``session.latency_s`` — so the loop only needs the latency itself.
        """
        if n_runs is None:
            n_runs = choose_run_count(latency_s)
        if n_runs <= 0:
            raise ValueError(f"n_runs must be positive, got {n_runs}")
        rng = np.random.default_rng(self.seed)
        noisy = float(latency_s) * rng.lognormal(
            mean=0.0, sigma=self.jitter_fraction, size=n_runs
        )
        return Measurement.from_samples(noisy, unit="s")

    def measure_with_init(self, session: InferenceSession, n_runs: int | None = None,
                          ) -> tuple[float, Measurement]:
        """Return (one-time init seconds, steady-state Measurement)."""
        return session.init_time_s, self.measure(session, n_runs)
