"""Runner: the one audited measurement path for every harness consumer.

Every figure, validation claim, sweep and CLI verb used to hand-roll the
same pipeline — deploy, build a session, seed a timer, catch ReproError —
each with its own string-triple plumbing.  The Runner owns that pipeline,
and it has exactly one route: :meth:`Runner.run` is a one-cell
:meth:`Runner.run_grid`, which hands its scenarios to the sweep compiler
(:mod:`repro.engine.compile`):

* deployments are deduplicated across the grid and go through the engine
  memo cache whenever the scenario is cacheable (recording whether they
  hit); an explicit graph or a non-default power mode deploys directly;
* every plan of the grid is priced by one roofline array program;
* container taxes, the cell-seeded paper-methodology timer and an optional
  energy meter are applied on top of the compiled latencies, so each cell
  gets the exact noise stream the harness has always had;
* failures come back as :class:`RunRecord` data, classified by the Table V
  taxonomy, instead of propagating control flow.

Finished records land in the engine's record cache, so re-running a grid
(or any overlapping figure) is a lookup.  ``run_cells`` routes serial
batches through ``run_grid`` and fans larger ones across a thread or
process pool with order-preserving results.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

import repro.engine.compile as sweep_compile
from repro.core.errors import ReproError, UnknownEntryError
from repro.core.quantity import Seconds
from repro.core.registry import canonical_name
from repro.engine.cache import RECORD_CACHE, caching_enabled
from repro.engine.executor import EngineConfig, InferenceSession
from repro.measurement.energy import EnergyMeter
from repro.measurement.timer import InferenceTimer
from repro.runtime.record import (
    FailureRecord,
    LatencyStats,
    PlanBreakdown,
    Provenance,
    RunRecord,
)
from repro.runtime.scenario import Scenario
from repro.virtualization.container import DEFAULT_CONTAINER, Container

EXECUTORS = ("thread", "process")

# Frameworks a user would try on each device, best-first — the paper's
# "best performing framework" per-device configuration (Figure 2).  This is
# the single copy; the harness and the deployment advisor both import it.
BEST_FRAMEWORK_CANDIDATES: dict[str, tuple[str, ...]] = {
    "Raspberry Pi 3B": ("TFLite", "TensorFlow", "Caffe", "DarkNet", "PyTorch"),
    "Jetson TX2": ("PyTorch", "TensorFlow", "Caffe", "DarkNet"),
    "Jetson Nano": ("TensorRT", "PyTorch"),
    "EdgeTPU": ("TFLite",),
    "Movidius NCS": ("NCSDK",),
    "PYNQ-Z1": ("TVM VTA", "FINN"),
}


@dataclass(frozen=True)
class Runner:
    """Facade over deploy -> session -> instruments for one scenario.

    Stateless apart from its configuration, so one module-level instance
    serves the whole harness and pickles cleanly into process pools.

    Attributes:
        container: the container runtime profile used for containerized
            scenarios.
    """

    container: Container = DEFAULT_CONTAINER

    # -- pipeline stages ---------------------------------------------------
    def deploy(self, scenario: Scenario, graph: Any = None) -> tuple[Any, str]:
        """Deploy the scenario; returns (deployed, cache outcome).

        The sweep compiler's deploy rule (:func:`repro.engine.compile.deploy`):
        cacheable scenarios go through the memo cache, an explicit graph or
        a non-default power mode deploys directly and reports ``"bypass"``.
        """
        outcome = sweep_compile.deploy_outcome(scenario, graph)
        return sweep_compile.deploy(scenario, graph), outcome

    def session(self, scenario: Scenario, graph: Any = None):
        """Deploy and build the (possibly containerized) session."""
        deployed, _ = self.deploy(scenario, graph)
        session = InferenceSession(
            deployed, config=EngineConfig(batch_size=scenario.batch_size))
        if scenario.containerized:
            session = self.container.wrap(session)
        return session

    def timer(self, scenario: Scenario) -> InferenceTimer:
        """The paper-methodology timer seeded for this cell."""
        return InferenceTimer(seed=scenario.seed)

    # -- measurement -------------------------------------------------------
    def measure(self, scenario: Scenario, use_timer: bool = True,
                graph: Any = None) -> Seconds:
        """Seconds per inference; raises :class:`ReproError` on failure.

        The latency of :meth:`run`'s record.  For a failed record the
        session is rebuilt, which raises the deployment's own typed error
        (``IncompatibleModelError``, ``OutOfMemoryError``, ...): failures
        are deterministic, and memoized when caching is on.
        """
        record = self.run(scenario, use_timer=use_timer, graph=graph)
        if record.failed:
            self.session(scenario, graph)
        return record.latency()

    def run(self, scenario: Scenario, *, use_timer: bool = True,
            graph: Any = None, energy_meter: EnergyMeter | None = None,
            n_runs: int | None = None) -> RunRecord:
        """Run one scenario into a :class:`RunRecord`: a one-cell
        :meth:`run_grid`.  Never raises for harness failures — they come
        back as failure records.

        Args:
            use_timer: run the Section V timing loop (seeded per cell);
                otherwise record the noise-free plan latency.
            graph: explicit (e.g. pruned) graph; bypasses the deploy and
                record caches.
            energy_meter: when given, also measure energy per inference.
            n_runs: timing-loop length override (default: paper policy).
        """
        return self.run_grid([scenario], use_timer=use_timer, graph=graph,
                             energy_meter=energy_meter, n_runs=n_runs)[0]

    # -- record caching ----------------------------------------------------
    @staticmethod
    def _record_key(scenario: Scenario, use_timer: bool,
                    n_runs: int | None) -> tuple:
        """Record-cache key: the cell's canonical key + measurement flags."""
        return (scenario.key, bool(use_timer), n_runs)

    @staticmethod
    def _refresh_provenance(record: RunRecord) -> RunRecord:
        """Re-derive the deploy-cache outcome for a cached record.

        A record stored on a cold run says ``"miss"``; by the time it is
        replayed the deployment is cached, so hits are refreshed to match.
        Failures (``"none"``) and uncacheable runtimes (``"bypass"``)
        replay unchanged.
        """
        if record.failed or not record.scenario.is_default_runtime:
            return record
        if record.provenance.deploy_cache == "hit":
            return record
        return replace(record,
                       provenance=replace(record.provenance, deploy_cache="hit"))

    # -- batch API ---------------------------------------------------------
    def run_cells(self, scenarios: Iterable[Scenario], *, jobs: int = 1,
                  executor: str = "thread", use_timer: bool = True) -> list[RunRecord]:
        """Run many scenarios, optionally across a worker pool.

        Results come back in input order regardless of completion order.
        Thread workers share the engine memo layer; process workers build
        their own per-process caches (records are identical either way —
        every cell's noise is seeded from its own canonical key).
        """
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        cells = list(scenarios)
        if jobs <= 1 or len(cells) <= 1:
            return self.run_grid(cells, use_timer=use_timer)
        pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        payloads = [(self, scenario, use_timer) for scenario in cells]
        with pool_cls(max_workers=min(jobs, len(cells))) as pool:
            return list(pool.map(_run_cell, payloads))

    def run_grid(self, scenarios: Iterable[Scenario], *,
                 use_timer: bool = True, graph: Any = None,
                 energy_meter: EnergyMeter | None = None,
                 n_runs: int | None = None) -> list[RunRecord]:
        """Run a scenario grid through the sweep compiler.

        The grid is compiled as one unit: deployments and plans are shared
        across cells, the rooflines are lowered into a single array
        program, and already-finished cells come straight out of the
        record cache.  Per-phase wall times land in the process-wide
        compiler stats (``repro.engine.compile.compile_stats``).

        The keywords mean what they mean on :meth:`run`, for every cell:
        ``graph`` replaces the zoo model (bypassing the deploy and record
        caches), ``energy_meter`` adds energy per inference (bypassing the
        record cache), and ``n_runs`` overrides the timing-loop length.
        """
        cells = list(scenarios)
        use_cache = graph is None and energy_meter is None and caching_enabled()
        records: list[RunRecord | None] = [None] * len(cells)
        pending: list[int] = []
        pending_keys: set = set()
        duplicates: list[tuple[int, tuple]] = []
        for index, scenario in enumerate(cells):
            if use_cache:
                key = self._record_key(scenario, use_timer, n_runs)
                if key in pending_keys:
                    # In-grid duplicate of a cell being compiled: resolve it
                    # from the record cache afterwards, like a replay.
                    duplicates.append((index, key))
                    continue
                found, cached = RECORD_CACHE.cached_value(key)
                if found:
                    records[index] = self._refresh_provenance(cached)
                    continue
                pending_keys.add(key)
            pending.append(index)
        if pending:
            start = time.perf_counter()
            program = sweep_compile.gather([cells[i] for i in pending], graph)
            gathered = time.perf_counter()
            sweep_compile.lower(program)
            lowered = time.perf_counter()
            compiled = sweep_compile.scatter(program)
            scattered = time.perf_counter()
            for index, cell in zip(pending, compiled):
                record = self._record_from_cell(cell, use_timer, energy_meter,
                                                n_runs)
                if use_cache:
                    record = RECORD_CACHE.store(
                        self._record_key(cell.scenario, use_timer, n_runs),
                        record)
                records[index] = record
            stats = program.stats
            stats.gather_s = gathered - start
            stats.lower_s = lowered - gathered
            stats.scatter_s = scattered - lowered
            stats.timer_s = time.perf_counter() - scattered
            sweep_compile.record_compile(stats)
        for index, key in duplicates:
            found, cached = RECORD_CACHE.cached_value(key)
            assert found  # the first occurrence was compiled and stored above
            records[index] = self._refresh_provenance(cached)
        return records  # type: ignore[return-value]  # every slot is filled

    def _record_from_cell(self, cell: Any, use_timer: bool,
                          energy_meter: EnergyMeter | None,
                          n_runs: int | None) -> RunRecord:
        """Assemble the :class:`RunRecord` of one compiled cell.

        The only place a record is built: container taxes via
        :meth:`Container.taxed_latency_s`, the cell-seeded timing loop via
        ``measure_latency``, and energy via :meth:`EnergyMeter.measure_draw`
        on the record's own draw and per-inference latency.
        """
        scenario = cell.scenario
        config = EngineConfig(batch_size=scenario.batch_size)
        if cell.error is not None:
            return RunRecord(
                scenario=scenario,
                status="failed",
                provenance=Provenance.build(scenario, "none", use_timer, config),
                failure=FailureRecord.from_error(cell.error),
            )
        bare_s = cell.latency_s
        deployed = cell.deployed
        if scenario.containerized:
            model_latency_s = self.container.taxed_latency_s(bare_s,
                                                             deployed.cpu_scale)
            overhead = (model_latency_s - bare_s) / bare_s
            init_time_s = cell.init_time_s + 2.0
        else:
            model_latency_s = bare_s
            overhead = None
            init_time_s = cell.init_time_s
        stats = None
        if use_timer:
            measurement = self.timer(scenario).measure_latency(model_latency_s,
                                                               n_runs)
            stats = LatencyStats.from_measurement(measurement)
            latency_s = measurement.value
        else:
            latency_s = model_latency_s
        energy_j = None
        if energy_meter is not None:
            energy_j = float(energy_meter.measure_draw(
                deployed.device.name, cell.power_w, model_latency_s))
        plan = cell.plan
        return RunRecord(
            scenario=scenario,
            status="ok",
            provenance=Provenance.build(scenario, cell.cache_outcome,
                                        use_timer, config),
            latency_s=latency_s,
            model_latency_s=model_latency_s,
            stats=stats,
            init_time_s=init_time_s,
            utilization=cell.utilization,
            power_w=cell.power_w,
            energy_j=energy_j,
            container_overhead=overhead,
            plan=PlanBreakdown(
                compute_s=plan.compute_s,
                memory_s=plan.memory_s,
                dispatch_s=plan.dispatch_s,
                roofline_s=plan.roofline_s,
                session_overhead_s=plan.session_overhead_s,
                input_transfer_s=plan.input_transfer_s,
                op_count=len(plan.timings),
                weight_bytes=cell.weight_bytes,
            ),
        )

    # -- candidate search --------------------------------------------------
    def candidates_for(self, device_name: str,
                       default: Sequence[str] | None = None) -> tuple[str, ...]:
        """Best-first framework candidates for a device.

        Unknown devices surface a structured :class:`UnknownEntryError`
        (which is both a ReproError and a KeyError) instead of a bare
        ``KeyError`` from the candidates table.
        """
        canon = canonical_name(device_name)
        for name, frameworks in BEST_FRAMEWORK_CANDIDATES.items():
            if canonical_name(name) == canon:
                return frameworks
        from repro.hardware import load_device

        load_device(device_name)  # raises UnknownEntryError for unknown devices
        if default is not None:
            return tuple(default)
        known = ", ".join(sorted(BEST_FRAMEWORK_CANDIDATES))
        raise UnknownEntryError(
            f"no best-framework candidates for device {device_name!r} "
            f"(candidates are defined for: {known})")

    def best_latency(self, model_name: str, device_name: str,
                     use_timer: bool = True) -> tuple[str, float] | None:
        """(framework, seconds) of the fastest deployable candidate, or None."""
        best: tuple[str, float] | None = None
        for framework_name in self.candidates_for(device_name):
            record = self.run(Scenario(model_name, device_name, framework_name),
                              use_timer=use_timer)
            if record.failed:
                continue
            assert record.latency_s is not None
            if best is None or record.latency_s < best[1]:
                best = (framework_name, record.latency_s)
        return best

    def first_session(self, model_name: str, device_name: str,
                      candidates: Sequence[str] | None = None,
                      default: Sequence[str] = ("PyTorch",)):
        """(framework, session) for the first deployable candidate, or None."""
        if candidates is None:
            candidates = self.candidates_for(device_name, default=default)
        for framework_name in candidates:
            try:
                session = self.session(Scenario(model_name, device_name, framework_name))
            except ReproError:
                continue
            return framework_name, session
        return None


def _run_cell(payload: tuple[Runner, Scenario, bool]) -> RunRecord:
    """Worker body for :meth:`Runner.run_cells`; module-level so it pickles."""
    runner, scenario, use_timer = payload
    return runner.run(scenario, use_timer=use_timer)


_DEFAULT_RUNNER = Runner()


def default_runner() -> Runner:
    """The shared module-level Runner the harness routes through."""
    return _DEFAULT_RUNNER
