"""Runner behaviour: old-path equivalence, batch API, candidate search."""

import pytest

from repro.core.errors import (
    IncompatibleModelError,
    OutOfMemoryError,
    ReproError,
    UnknownEntryError,
)
from repro.engine.cache import RECORD_CACHE, cached_deploy, clear_caches
from repro.engine.executor import InferenceSession
from repro.graphs.transforms import prune_graph
from repro.hardware import list_operating_points
from repro.measurement.energy import EnergyMeter
from repro.measurement.timer import InferenceTimer
from repro.models import load_model
from repro.runtime import Runner, Scenario, default_runner

# Cells covering four devices and both timer regimes; VGG16-on-RPi-TF is the
# canonical Table V memory failure.
SAMPLE_CELLS = (
    ("ResNet-18", "Jetson Nano", "TensorRT"),
    ("MobileNet-v2", "EdgeTPU", "TFLite"),
    ("ResNet-18", "Jetson TX2", "PyTorch"),
    ("MobileNet-v2", "Raspberry Pi 3B", "TFLite"),
)


def legacy_latency_s(model: str, device: str, framework: str,
                     use_timer: bool = True) -> float:
    """The pre-Runner measurement pipeline: a session and a cell-seeded timer."""
    session = InferenceSession(cached_deploy(model, device, framework))
    if use_timer:
        timer = InferenceTimer(seed=Scenario(model, device, framework).seed)
        return float(timer.measure(session))
    return session.latency_s


class TestOldPathEquivalence:
    @pytest.mark.parametrize("cell", SAMPLE_CELLS)
    def test_timed_latency_matches_legacy_exactly(self, cell):
        record = default_runner().run(Scenario(*cell))
        assert record.ok
        assert record.latency_s == legacy_latency_s(*cell)  # zero tolerance

    @pytest.mark.parametrize("cell", SAMPLE_CELLS)
    def test_plan_latency_matches_legacy_exactly(self, cell):
        record = default_runner().run(Scenario(*cell), use_timer=False)
        assert record.latency_s == legacy_latency_s(*cell, use_timer=False)

    def test_measure_matches_record_latency(self):
        scenario = Scenario(*SAMPLE_CELLS[0])
        runner = default_runner()
        assert runner.measure(scenario) == runner.run(scenario).latency_s

    def test_latency_independent_of_cache_state(self):
        cell = SAMPLE_CELLS[0]
        clear_caches()
        cold = default_runner().run(Scenario(*cell))
        warm = default_runner().run(Scenario(*cell))
        assert cold.provenance.deploy_cache == "miss"
        assert warm.provenance.deploy_cache == "hit"
        assert cold.latency_s == warm.latency_s


class TestMeasureRaisesTypedErrors:
    """``measure`` reads the record, but a failure still raises the
    deployment's own exception type, cold and warm."""

    @pytest.mark.parametrize("scenario,error_type", [
        (Scenario("SSD MobileNet-v1", "Raspberry Pi 3B", "TensorFlow"),
         IncompatibleModelError),
        (Scenario("Inception-v4", "Raspberry Pi 3B", "TFLite", batch_size=4096),
         OutOfMemoryError),
    ])
    def test_cold_and_warm(self, scenario, error_type):
        clear_caches()
        runner = Runner()
        with pytest.raises(error_type):
            runner.measure(scenario)
        assert runner.run(scenario).failed  # now a cached failure record
        with pytest.raises(error_type):
            runner.measure(scenario)


class TestRunKeywords:
    def test_energy_matches_the_session_meter_bitwise(self):
        # ext_power_modes' cells, plus a containerized USB-powered cell.
        cells = [Scenario("ResNet-50", device, framework, power_mode=point.name)
                 for device, framework in (("Jetson TX2", "PyTorch"),
                                           ("Jetson Nano", "TensorRT"))
                 for point in list_operating_points(device)]
        cells.append(Scenario("MobileNet-v2", "Raspberry Pi 3B", "TFLite",
                              containerized=True))
        runner = Runner()
        for scenario in cells:
            record = runner.run(scenario, use_timer=False,
                                energy_meter=EnergyMeter())
            expected = float(EnergyMeter().measure(runner.session(scenario)))
            assert record.energy_j == expected, scenario.describe()

    def test_explicit_graph_bypasses_deploy_and_record_caches(self):
        clear_caches()
        scenario = Scenario("ResNet-18", "Jetson TX2", "TensorFlow")
        pruned = prune_graph(load_model("ResNet-18"), 0.75)
        record = Runner().run(scenario, use_timer=False, graph=pruned)
        assert record.ok
        assert record.provenance.deploy_cache == "bypass"
        assert len(RECORD_CACHE) == 0
        # TensorFlow exploits sparsity, so the pruned graph really ran.
        dense = Runner().run(scenario, use_timer=False)
        assert record.model_latency_s < dense.model_latency_s

    def test_n_runs_override_sets_the_loop_length(self):
        record = Runner().run(Scenario(*SAMPLE_CELLS[0]), n_runs=7)
        assert record.stats.samples == 7


class TestBatchAPI:
    def test_parallel_equals_serial(self):
        scenarios = [Scenario(*cell) for cell in SAMPLE_CELLS]
        runner = default_runner()
        serial = runner.run_cells(scenarios)
        threaded = runner.run_cells(scenarios, jobs=4)
        assert [r.latency_s for r in threaded] == [r.latency_s for r in serial]
        assert [r.scenario for r in threaded] == [r.scenario for r in serial]

    def test_process_pool_equals_serial(self):
        scenarios = [Scenario(*cell) for cell in SAMPLE_CELLS[:2]]
        runner = default_runner()
        serial = runner.run_cells(scenarios)
        forked = runner.run_cells(scenarios, jobs=2, executor="process")
        assert [r.latency_s for r in forked] == [r.latency_s for r in serial]

    def test_failures_travel_as_records(self):
        scenarios = [Scenario("VGG16", "Raspberry Pi 3B", "TensorFlow"),
                     Scenario(*SAMPLE_CELLS[0])]
        records = default_runner().run_cells(scenarios, jobs=2)
        assert records[0].failed
        assert records[0].failure.kind == "memory_error"
        assert records[1].ok

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            default_runner().run_cells([], executor="rayon")


class TestCandidateSearch:
    def test_unknown_device_is_structured_error(self):
        with pytest.raises(UnknownEntryError):
            default_runner().candidates_for("Coral Dev Board Mega")
        # still catchable the old mapping way, but as a ReproError too
        with pytest.raises(ReproError):
            default_runner().best_latency("ResNet-18", "Coral Dev Board Mega")

    def test_candidates_canonicalize(self):
        runner = default_runner()
        assert runner.candidates_for("jetson-nano") == runner.candidates_for(
            "Jetson Nano")

    def test_best_latency_picks_fastest_candidate(self):
        runner = default_runner()
        best = runner.best_latency("ResNet-18", "Jetson Nano")
        assert best is not None
        framework, latency_s = best
        for candidate in runner.candidates_for("Jetson Nano"):
            record = runner.run(Scenario("ResNet-18", "Jetson Nano", candidate))
            if record.ok:
                assert latency_s <= record.latency_s

    def test_first_session_skips_failures(self):
        result = default_runner().first_session("VGG16", "Raspberry Pi 3B")
        assert result is not None
        framework, session = result
        assert framework != "TensorFlow" or session is not None


class TestScenarioAxes:
    def test_containerized_record_reports_overhead(self):
        record = default_runner().run(
            Scenario("MobileNet-v2", "Jetson TX2", "PyTorch",
                     containerized=True))
        assert record.ok
        assert record.container_overhead is not None
        assert 0.0 < record.container_overhead <= 0.05 + 1e-12
        bare = default_runner().run(
            Scenario("MobileNet-v2", "Jetson TX2", "PyTorch"))
        assert record.model_latency_s > bare.model_latency_s

    def test_power_mode_bypasses_deploy_cache(self):
        record = default_runner().run(
            Scenario("ResNet-18", "Jetson TX2", "PyTorch",
                     power_mode="Max-Q"), use_timer=False)
        assert record.ok
        assert record.provenance.deploy_cache == "bypass"

    def test_runner_is_picklable(self):
        import pickle

        runner = pickle.loads(pickle.dumps(Runner()))
        assert runner.run(Scenario(*SAMPLE_CELLS[0]), use_timer=False).ok
