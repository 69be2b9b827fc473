"""Cross-module consistency: harness outputs must equal first-principles
recomputation through the public API.

These tests catch the failure mode where a figure generator and the engine
drift apart — every number the harness prints must be reconstructible from
a session built by hand.
"""

import pytest

from repro import InferenceSession, load_device, load_framework, load_model
from repro.frameworks.compat import compatibility_matrix
from repro.harness import run_experiment
from repro.measurement.energy import active_power_w
from repro.runtime import BEST_FRAMEWORK_CANDIDATES, Scenario, default_runner

RUNNER = default_runner()


def hand_measured_s(model: str, device: str, framework: str) -> float:
    """A session built by hand, timed by the cell-seeded paper loop."""
    scenario = Scenario(model, device, framework)
    return float(RUNNER.timer(scenario).measure(RUNNER.session(scenario)))


class TestFig2Consistency:
    def test_best_framework_is_really_the_minimum(self):
        """fig02's winner must beat every other deployable candidate."""
        for model, device in (("ResNet-50", "Raspberry Pi 3B"),
                              ("MobileNet-v2", "Jetson Nano"),
                              ("VGG16", "Jetson TX2")):
            winner, latency = RUNNER.best_latency(model, device)
            for candidate in BEST_FRAMEWORK_CANDIDATES[device]:
                try:
                    candidate_latency = hand_measured_s(model, device, candidate)
                except Exception:
                    continue
                assert latency <= candidate_latency + 1e-12, (candidate, winner)

    def test_fig2_cells_match_direct_measurement(self):
        table = run_experiment("fig02")
        row = table.row("Jetson Nano / ResNet-50")
        direct = hand_measured_s("ResNet-50", "Jetson Nano", row["framework"]) * 1e3
        assert row["measured_ms"] == pytest.approx(direct, rel=1e-9)


class TestEnergyConsistency:
    def test_fig12_points_equal_power_times_utilization(self):
        table = run_experiment("fig12")
        row = table.row("Jetson TX2 / ResNet-50")
        session = RUNNER.session(Scenario("ResNet-50", "Jetson TX2", row["framework"]))
        assert row["power_w"] == pytest.approx(active_power_w(session), rel=1e-9)
        assert row["latency_ms"] == pytest.approx(session.latency_s * 1e3, rel=1e-9)

    def test_fig11_energy_consistent_with_fig12_point(self):
        """Energy-per-inference must equal the scatter's power x latency,
        up to the simulated instrument accuracy."""
        fig11 = run_experiment("fig11")
        fig12 = run_experiment("fig12")
        for label in ("Jetson TX2 / ResNet-50", "EdgeTPU / MobileNet-v2"):
            energy_mj = fig11.row(label)["energy_mj"]
            point = fig12.row(label)
            expected = point["power_w"] * point["latency_ms"]  # W * ms = mJ
            assert energy_mj == pytest.approx(expected, rel=0.02), label


class TestTable5Consistency:
    def test_runnable_cells_produce_fig2_latencies(self):
        """Every runnable Table V cell has a (finite) fig02 latency, and
        every failing cell is marked '(fails)'."""
        matrix = compatibility_matrix()
        fig2 = run_experiment("fig02")
        for model, row in matrix.items():
            for device, result in row.items():
                cell = fig2.row(f"{device} / {model}")
                if result.status.runnable:
                    assert cell["measured_ms"] is not None, (model, device)
                    assert cell["measured_ms"] > 0
                else:
                    assert cell["framework"] == "(fails)", (model, device)


class TestProfileConsistency:
    def test_stack_run_bucket_equals_n_times_latency(self):
        from repro.profiling import profile_stack

        session = RUNNER.session(Scenario("ResNet-18", "Jetson TX2", "TensorFlow"))
        profile = profile_stack(session, 500)
        run_bucket = next(e for e in profile.entries
                          if e.function == "TF_SessionRunCallable")
        assert run_bucket.total_s == pytest.approx(500 * session.latency_s)
        assert run_bucket.calls == 500

    def test_pytorch_compute_buckets_sum_to_roofline(self):
        from repro.profiling import profile_stack

        session = RUNNER.session(Scenario("ResNet-18", "Jetson TX2", "PyTorch"))
        profile = profile_stack(session, 100)
        per_inference = sum(
            e.total_s for e in profile.entries if e.group == "per-inference"
        ) / 100
        assert per_inference == pytest.approx(session.latency_s, rel=1e-9)


class TestCalibrationConsistency:
    def test_anchored_pairs_reproduce_their_paper_numbers(self):
        """Deploying an anchor's exact (model, device, framework) triple via
        the public API must land on the paper latency."""
        from repro.engine.calibration import ANCHORS

        for (framework, device), (model, target_s, _src) in list(ANCHORS.items())[:8]:
            deployed = load_framework(framework).deploy(
                load_model(model), load_device(device))
            session = InferenceSession(deployed)
            assert session.latency_s == pytest.approx(target_s, rel=0.02), (
                framework, device)
