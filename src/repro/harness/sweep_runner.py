"""Parallel sweep runner: fan experiments or scenarios across a pool.

The experiment generators are pure functions of their scenarios —
measurement noise included, since every cell seeds its own RNG from its
canonical key (``Scenario.seed``).  That makes the whole suite
embarrassingly parallel: workers share the engine's memoization layer
(thread executor) or build their own per process (process executor), and
the assembled snapshot is byte-identical to the serial one regardless of
completion order.

Two granularities:

* :func:`run_sweep` — experiment-level: one worker per registered
  figure/table, producing an export snapshot plus timings.
* :func:`run_scenarios` — cell-level: one :class:`repro.runtime.RunRecord`
  per :class:`repro.runtime.Scenario`, delegated to
  :meth:`repro.runtime.Runner.run_cells`.

``python -m repro suite --jobs N --stats`` is the CLI face of this module.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.engine.cache import cache_stats, caching_enabled
from repro.core.summation import serial_sum
from repro.engine.compile import compile_stats
from repro.harness.registry import list_experiments
from repro.harness.suite import (
    SNAPSHOT_VERSION,
    experiment_payload,
    precompile_experiments,
)
from repro.runtime import RunRecord, Scenario, default_runner

EXECUTORS = ("thread", "process")


@dataclass(frozen=True)
class ExperimentRun:
    """Wall-clock accounting for one experiment cell."""

    experiment_id: str
    wall_s: float


@dataclass
class SweepResult:
    """An export snapshot plus the per-experiment timing that produced it."""

    snapshot: dict[str, Any]
    runs: list[ExperimentRun]
    wall_s: float
    jobs: int
    executor: str
    cache: dict[str, dict[str, Any]]
    compile: dict[str, Any] = field(default_factory=dict)

    @property
    def experiment_s(self) -> float:
        """Summed per-experiment wall time (> ``wall_s`` when parallel)."""
        return serial_sum(run.wall_s for run in self.runs)

    def describe(self) -> str:
        lines = [
            f"{run.experiment_id:16s} {run.wall_s * 1e3:9.1f} ms"
            for run in sorted(self.runs, key=lambda r: r.wall_s, reverse=True)
        ]
        lines.append(
            f"{len(self.runs)} experiments in {self.wall_s:.2f} s wall "
            f"({self.experiment_s:.2f} s summed) with {self.jobs} "
            f"{self.executor} worker(s)"
        )
        if self.compile.get("cells"):
            lines.append(
                f"sweep compiler: {self.compile['cells']} cells -> "
                f"{self.compile['unique_plans']} plans "
                f"({self.compile['dedup_ratio']:.1f}x dedup) in "
                f"{self.compile['array_programs']} array program(s)"
            )
        return "\n".join(lines)


def _run_cell(experiment_id: str) -> tuple[str, dict[str, Any], float]:
    """Worker body: one experiment, timed.  Module-level so it pickles."""
    start = time.perf_counter()
    payload = experiment_payload(experiment_id)
    return experiment_id, payload, time.perf_counter() - start


def run_sweep(experiment_ids: list[str] | None = None, jobs: int = 1,
              executor: str = "thread") -> SweepResult:
    """Run experiments (optionally in parallel) into a snapshot + timings.

    Args:
        experiment_ids: ids to run; default every registered experiment.
        jobs: worker count; ``<= 1`` runs serially in this thread.
        executor: ``"thread"`` shares this process's memoization layer
            (best once caches are warm or for the deterministic-output
            guarantee at zero setup cost); ``"process"`` sidesteps the GIL
            for cold CPU-bound sweeps, with per-worker caches.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    ids = list(experiment_ids or list_experiments())
    start = time.perf_counter()
    if caching_enabled() and (executor == "thread" or jobs <= 1):
        # Process workers build their own caches; precompiling here would
        # only warm this process.  Thread workers share it.
        precompile_experiments(ids)
    if jobs <= 1 or len(ids) <= 1:
        results = [_run_cell(experiment_id) for experiment_id in ids]
    else:
        pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        with pool_cls(max_workers=min(jobs, len(ids))) as pool:
            # Executor.map preserves input order: the snapshot comes out in
            # registry order no matter which worker finishes first.
            results = list(pool.map(_run_cell, ids))
    wall_s = time.perf_counter() - start
    snapshot = {
        "snapshot_version": SNAPSHOT_VERSION,
        "experiments": {experiment_id: payload for experiment_id, payload, _ in results},
    }
    runs = [ExperimentRun(experiment_id, cell_wall)
            for experiment_id, _, cell_wall in results]
    return SweepResult(
        snapshot=snapshot,
        runs=runs,
        wall_s=wall_s,
        jobs=max(1, jobs),
        executor=executor,
        cache=cache_stats(),
        compile=compile_stats(),
    )


def run_scenarios(scenarios: list[Scenario], jobs: int = 1,
                  executor: str = "thread",
                  use_timer: bool = True) -> list[RunRecord]:
    """Run individual cells (optionally in parallel) into RunRecords.

    A thin face over :meth:`repro.runtime.Runner.run_cells` so sweep
    consumers get cell-level fan-out with the same executor semantics as
    the experiment-level sweep.  Results preserve input order.
    """
    return default_runner().run_cells(
        scenarios, jobs=jobs, executor=executor, use_timer=use_timer)
