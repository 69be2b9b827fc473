"""Sweep compiler: the one execution path, checked at zero tolerance.

* op level — the grid lowering (all plans in one array program) prices
  every op of every zoo model to the same IEEE-754 doubles as the scalar
  reference formula in ``tests/engine/reference``;
* record level — a whole ``Runner.run_grid`` returns the same
  ``RunRecord`` values as one-cell ``Runner.run`` calls, including
  failures, batch sizes, dtypes, containerized cells and non-default
  power modes;
* composition level (hypothesis) — which other cells share the batch, and
  in what order, never changes any cell's record.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import compile as sweep_compile
from repro.engine.cache import clear_caches, set_caching
from repro.engine.executor import EngineConfig, resolve_plan_spec
from repro.models.zoo import list_models
from repro.runtime import Runner, Scenario
from tests.engine.reference import time_op

pytestmark = pytest.mark.usefixtures("fresh_caches")


@pytest.fixture()
def fresh_caches():
    clear_caches()
    sweep_compile.reset_compile_stats()
    yield
    clear_caches()
    sweep_compile.reset_compile_stats()


def _strip_deploy_provenance(record):
    """Records modulo the deploy-cache outcome, which legitimately depends
    on what ran earlier in the process (hit vs miss)."""
    from dataclasses import replace

    return replace(record, provenance=replace(record.provenance, deploy_cache=""))


MIXED_CELLS = [
    Scenario("ResNet-18", "Jetson TX2", "PyTorch"),
    Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite"),
    Scenario("ResNet-18", "Jetson TX2", "PyTorch"),  # in-grid duplicate
    Scenario("ResNet-50", "GTX Titan X", "PyTorch", batch_size=4),
    Scenario("SSD MobileNet-v1", "Raspberry Pi 3B", "TensorFlow"),  # fails
    Scenario("Inception-v4", "Jetson Nano", "TensorRT", dtype="int8"),
    Scenario("MobileNet-v2", "Jetson TX2", "TensorFlow", power_mode="MAXN"),
    Scenario("ResNet-18", "Raspberry Pi 3B", "TensorFlow", containerized=True),
]


def compile_grid(scenarios):
    """Gather, lower and scatter one grid; returns (cells, stats)."""
    program = sweep_compile.gather(list(scenarios))
    sweep_compile.lower(program)
    return sweep_compile.scatter(program), program.stats


class TestThreeWayOpEquivalence:
    """The scalar reference formula == the compiled grid, over the whole zoo."""

    def test_full_zoo_lowered_bit_identical(self):
        scenarios = [Scenario(model, "Jetson TX2", "PyTorch")
                     for model in list_models()]
        cells, _ = compile_grid(scenarios)
        compiled = {cell.scenario.key: cell for cell in cells}
        checked = 0
        for scenario in scenarios:
            cell = compiled[scenario.key]
            if not cell.ok:
                continue
            deployed, _ = Runner().deploy(scenario)
            spec = resolve_plan_spec(deployed, EngineConfig(), _scale(deployed))
            assert len(cell.plan.timings) == len(spec.ops)
            for lowered, op, efficiency in zip(
                    cell.plan.timings, spec.ops, spec.efficiencies):
                reference = time_op(
                    op, spec.inputs, efficiency,
                    exploit_sparsity=deployed.exploit_sparsity,
                    per_op_overhead_s=spec.per_op_overhead_s,
                    batch_size=spec.batch_size,
                    include_memory_term=spec.include_memory_term)
                # Exact equality: both must run the same float64 operations
                # in the same order.
                assert lowered.op is op
                assert lowered.compute_s == reference.compute_s
                assert lowered.memory_s == reference.memory_s
                assert lowered.dispatch_s == reference.dispatch_s
                assert lowered.bound == reference.bound
                checked += 1
        assert checked > 100  # the zoo is not trivially skipped


def _scale(deployed) -> float:
    from repro.engine.calibration import efficiency_scale

    return efficiency_scale(deployed.framework.name, deployed.device.name)


class TestRunGridMatchesRun:
    @pytest.mark.parametrize("use_timer", [True, False])
    def test_mixed_grid_records_equal_scalar_records(self, use_timer):
        clear_caches()
        scalar = [Runner().run(s, use_timer=use_timer) for s in MIXED_CELLS]
        clear_caches()
        gridded = Runner().run_grid(MIXED_CELLS, use_timer=use_timer)
        assert gridded == scalar

    def test_warm_replay_identical(self):
        # A second pass refreshes deploy provenance to "hit" exactly like a
        # scalar replay would; compare warm against warm.
        runner = Runner()
        runner.run_grid(MIXED_CELLS)
        warm_grid = runner.run_grid(MIXED_CELLS)
        warm_scalar = [runner.run(s) for s in MIXED_CELLS]
        assert warm_grid == warm_scalar
        assert warm_grid == runner.run_grid(MIXED_CELLS)

    def test_scalar_after_grid_hits_the_record_cache(self):
        runner = Runner()
        gridded = runner.run_grid(MIXED_CELLS)
        replayed = [runner.run(s) for s in MIXED_CELLS]
        assert ([_strip_deploy_provenance(r) for r in replayed]
                == [_strip_deploy_provenance(r) for r in gridded])
        from repro.engine.cache import cache_stats

        assert cache_stats()["record"]["hits"] >= len(MIXED_CELLS)

    def test_caching_disabled_still_identical(self):
        set_caching(False)
        try:
            scalar = [Runner().run(s, use_timer=False) for s in MIXED_CELLS]
            gridded = Runner().run_grid(MIXED_CELLS, use_timer=False)
        finally:
            set_caching(True)
        assert gridded == scalar

    def test_failure_cells_round_trip(self):
        failing = Scenario("SSD MobileNet-v1", "Raspberry Pi 3B", "TensorFlow")
        record = Runner().run_grid([failing])[0]
        assert record.failed
        assert record.failure is not None
        assert record == Runner().run(failing)


class TestCompositionIndependence:
    """Hypothesis: batching and dedup order never change any record."""

    POOL = MIXED_CELLS

    @given(subset=st.lists(st.integers(0, len(POOL) - 1),
                           min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_record_independent_of_batch_composition(self, subset):
        grid = [self.POOL[i] for i in subset]
        clear_caches()
        solo = {s.key: _strip_deploy_provenance(Runner().run(s, use_timer=False))
                for s in grid}
        clear_caches()
        batched = Runner().run_grid(grid, use_timer=False)
        for scenario, record in zip(grid, batched):
            assert _strip_deploy_provenance(record) == solo[scenario.key]


class TestCompileStats:
    def test_counters_shape(self):
        grid = MIXED_CELLS
        cells, program_stats = compile_grid(grid)
        assert len(cells) == len(grid)
        assert program_stats.cells == len(grid)
        assert 0 < program_stats.unique_plans <= program_stats.cells
        assert program_stats.dedup_ratio == (
            program_stats.cells / program_stats.unique_plans)
        # A warm re-gather resolves every plan from the cache.
        warm = sweep_compile.gather(grid).stats
        assert warm.unique_plans == 0
        assert warm.plan_cache_hits > 0

    def test_lowered_program_counters(self):
        program = sweep_compile.gather(MIXED_CELLS)
        sweep_compile.lower(program)
        assert program.stats.array_programs >= 1
        assert program.stats.ops_lowered > 0
        assert program.stats.macs_lowered > 0
        # Wall-clock stats stay zero inside compile — the driver stamps them
        # (the ARCH005 contract).
        assert program.stats.gather_s == 0
        assert program.stats.lower_s == 0
        assert program.stats.scatter_s == 0

    def test_process_accumulator_records_and_resets(self):
        sweep_compile.reset_compile_stats()
        assert sweep_compile.compile_stats()["cells"] == 0
        program = sweep_compile.gather(MIXED_CELLS[:2])
        sweep_compile.lower(program)
        sweep_compile.record_compile(program.stats)
        totals = sweep_compile.compile_stats()
        assert totals["grids"] == 1
        assert totals["cells"] == 2
        sweep_compile.reset_compile_stats()
        assert sweep_compile.compile_stats()["grids"] == 0

    def test_dedup_ratio_defined_for_empty_grid(self):
        program = sweep_compile.gather([])
        assert program.stats.dedup_ratio == 1.0
