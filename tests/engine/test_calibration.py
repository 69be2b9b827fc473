"""Anchor calibration: every paper anchor must be hit (or documented)."""

import pytest

from repro.engine import calibration
from repro.engine.calibration import (
    ANCHORS,
    MAX_SCALE,
    MIN_SCALE,
    calibration_report,
    efficiency_scale,
)
from tests.engine import reference


class TestAnchors:
    @pytest.fixture(scope="class")
    def report(self):
        return calibration_report()

    def test_every_anchor_fits(self, report):
        for entry in report:
            assert entry["achieved_s"] == pytest.approx(entry["target_s"], rel=0.02), entry

    def test_no_anchor_clamped(self, report):
        assert not any(entry["clamped"] for entry in report)

    def test_scales_physical(self, report):
        """Calibrated efficiency on the anchor's unit stays near-or-below
        unity of peak (no superluminal kernels)."""
        from repro.frameworks import load_framework
        from repro.hardware import load_device
        from repro.models import load_model

        for entry in report:
            framework = load_framework(entry["framework"])
            deployed = framework.deploy(
                load_model(entry["model"]), load_device(entry["device"]))
            base = framework.kernel_quality.get(deployed.unit.kind, 0.15)
            assert base * entry["scale"] <= 1.1, entry

    def test_anchor_sources_recorded(self):
        for (_fw, _dev), (_model, _target, source) in ANCHORS.items():
            assert source  # every anchor cites its figure

    def test_one_anchor_per_pair(self):
        assert len(ANCHORS) == len(set(ANCHORS))


class TestTimingColumns:
    """The fit reads the plan's timing columns; the per-op loop over
    ``plan.timings`` (``tests/engine/reference.py``) is the oracle."""

    @pytest.mark.parametrize("pair", list(ANCHORS), ids="@".join)
    def test_anchor_latency_matches_the_per_op_loop(self, pair):
        model_name = ANCHORS[pair][0]
        fixed, terms = calibration._latency_components(*pair, model_name)
        expected_fixed, timings = reference.anchor_latency_components(
            *pair, model_name)
        assert fixed == expected_fixed
        fitted = efficiency_scale(*pair)
        for scale in (MIN_SCALE, 0.37, 1.0, fitted, MAX_SCALE):
            assert (calibration._latency_at(scale, fixed, terms).hex()
                    == reference.anchor_latency_at(scale, fixed, timings).hex())

    def test_fitted_scales_match_the_per_op_loop(self, monkeypatch):
        fitted = {pair: efficiency_scale(*pair).hex() for pair in ANCHORS}
        monkeypatch.setattr(calibration, "_latency_components",
                            reference.anchor_latency_components)
        monkeypatch.setattr(calibration, "_latency_at",
                            reference.anchor_latency_at)
        oracle = {pair: calibration._fit.__wrapped__(*pair).hex()
                  for pair in ANCHORS}
        assert fitted == oracle


class TestScaleResolution:
    def test_cached_and_deterministic(self):
        first = efficiency_scale("PyTorch", "Jetson TX2")
        second = efficiency_scale("PyTorch", "Jetson TX2")
        assert first == second
        assert MIN_SCALE <= first <= MAX_SCALE

    def test_keras_inherits_tensorflow_per_device(self):
        """Same engine, same device: the exact fitted scale carries over."""
        assert (efficiency_scale("Keras", "Raspberry Pi 3B")
                == efficiency_scale("TensorFlow", "Raspberry Pi 3B"))

    def test_keras_falls_back_to_mean_on_unanchored_devices(self):
        keras = efficiency_scale("Keras", "Jetson Nano")  # TF not anchored there
        tf_scales = [efficiency_scale(fw, dev) for (fw, dev) in ANCHORS if fw == "TensorFlow"]
        assert keras == pytest.approx(sum(tf_scales) / len(tf_scales))

    def test_unanchored_pair_uses_framework_mean(self):
        tflite_tx2 = efficiency_scale("TFLite", "Jetson TX2")
        tflite_scales = [efficiency_scale(fw, dev) for (fw, dev) in ANCHORS if fw == "TFLite"]
        assert tflite_tx2 == pytest.approx(sum(tflite_scales) / len(tflite_scales))

    def test_completely_unknown_framework_defaults_to_one(self):
        assert efficiency_scale("NoSuchFramework", "Jetson TX2") == 1.0
