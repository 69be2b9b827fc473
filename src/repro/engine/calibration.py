"""One-point anchor calibration.

The paper's absolute numbers depend on testbed constants we cannot know
(library versions, DVFS states, kernel selections).  We therefore calibrate
ONE efficiency multiplier per (framework, device) pair against ONE anchor
latency read from the paper's figures; every other model on that pair is a
pure prediction of the roofline + overhead model.  Anchors and their figure
sources are listed below and cross-referenced in EXPERIMENTS.md.

The fit is exact where reachable: the per-op compute terms scale as ``1/s``
while memory terms and overheads are fixed, so the anchor latency is solved
by bisection on ``s``.  If the anchor is faster than the memory/overhead
floor the scale clamps at ``MAX_SCALE`` (recorded by ``calibration_report``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.summation import serial_sum, serial_sum_array

MIN_SCALE = 1e-4
MAX_SCALE = 100.0

#: (framework, device) -> (anchor model, paper latency in seconds, source).
ANCHORS: dict[tuple[str, str], tuple[str, float, str]] = {
    ("TensorFlow", "Raspberry Pi 3B"): ("ResNet-18", 0.99, "Fig. 8"),
    ("TFLite", "Raspberry Pi 3B"): ("ResNet-18", 0.87, "Fig. 2/8"),
    ("PyTorch", "Raspberry Pi 3B"): ("ResNet-18", 6.57, "Fig. 8"),
    ("Caffe", "Raspberry Pi 3B"): ("MobileNet-v2", 2.27, "Sec. VI-B1"),
    ("DarkNet", "Raspberry Pi 3B"): ("ResNet-50", 4.0, "Fig. 3 (approx.)"),
    ("PyTorch", "Jetson TX2"): ("ResNet-18", 0.0265, "Fig. 2"),
    ("TensorFlow", "Jetson TX2"): ("ResNet-18", 0.0583, "Fig. 4 (approx.)"),
    ("Caffe", "Jetson TX2"): ("ResNet-18", 0.0424, "Fig. 4 (approx.)"),
    ("DarkNet", "Jetson TX2"): ("ResNet-18", 0.0477, "Fig. 4 (approx.)"),
    ("TensorRT", "Jetson Nano"): ("ResNet-18", 0.023, "Fig. 7"),
    ("PyTorch", "Jetson Nano"): ("ResNet-18", 0.1413, "Fig. 7"),
    ("TFLite", "EdgeTPU"): ("MobileNet-v2", 0.0029, "Fig. 2"),
    ("NCSDK", "Movidius NCS"): ("MobileNet-v2", 0.051, "Fig. 2"),
    ("TVM VTA", "PYNQ-Z1"): ("ResNet-18", 0.1861, "Fig. 2 (approx.)"),
    ("FINN", "PYNQ-Z1"): ("CifarNet 32x32", 0.0055, "FINN paper-scale anchor"),
    ("PyTorch", "Xeon E5-2696 v4"): ("ResNet-18", 0.035, "Fig. 9/10 (approx.)"),
    ("PyTorch", "GTX Titan X"): ("ResNet-50", 0.020, "Fig. 6 (approx.)"),
    ("TensorFlow", "GTX Titan X"): ("ResNet-50", 0.030, "Fig. 6 (approx.)"),
    ("PyTorch", "Titan Xp"): ("ResNet-18", 0.0055, "Fig. 10 (approx.)"),
    ("PyTorch", "RTX 2080"): ("ResNet-18", 0.0032, "Fig. 10 (approx.)"),
}

#: frameworks sharing another framework's kernels when unanchored.
_SCALE_DELEGATES = {"Keras": "TensorFlow"}


def _latency_components(framework_name: str, device_name: str, model_name: str):
    """Build an uncalibrated session and return its scale-dependent pieces:
    the fixed seconds and the plan's per-op compute, memory and dispatch
    columns."""
    from repro.engine.executor import InferenceSession
    from repro.frameworks import load_framework
    from repro.hardware import load_device
    from repro.models import load_model

    framework = load_framework(framework_name)
    device = load_device(device_name)
    deployed = framework.deploy(load_model(model_name), device)
    plan = InferenceSession(deployed, efficiency_scale=1.0).plan
    fixed = plan.session_overhead_s + plan.input_transfer_s
    return fixed, (plan.op_compute_s, plan.op_memory_s, plan.op_dispatch_s)


def _latency_at(scale: float, fixed: float, terms) -> float:
    compute, memory, dispatch = terms
    # the ops' latencies add one by one, as the per-op loop did, so the
    # fitted scales stay bit-identical
    return fixed + serial_sum_array(np.maximum(compute / scale, memory) + dispatch)


@lru_cache(maxsize=None)
def _fit(framework_name: str, device_name: str) -> float:
    anchor = ANCHORS.get((framework_name, device_name))
    if anchor is None:
        delegate = _SCALE_DELEGATES.get(framework_name)
        if delegate is not None and (delegate, device_name) in ANCHORS:
            # Same engine, same device: inherit the exact fitted scale.
            return _fit(delegate, device_name)
        return _fallback_scale(framework_name)
    model_name, target_s, _source = anchor
    fixed, terms = _latency_components(framework_name, device_name, model_name)
    if _latency_at(MAX_SCALE, fixed, terms) >= target_s:
        return MAX_SCALE  # memory/overhead floor above the anchor
    lo, hi = MIN_SCALE, MAX_SCALE
    for _ in range(80):
        mid = (lo * hi) ** 0.5  # bisect in log space
        if _latency_at(mid, fixed, terms) > target_s:
            lo = mid
        else:
            hi = mid
    return (lo * hi) ** 0.5


def _fallback_scale(framework_name: str) -> float:
    """Scale for unanchored pairs: delegate, else mean of the framework's
    fitted scales, else the structured default of 1.0."""
    delegate = _SCALE_DELEGATES.get(framework_name)
    if delegate is not None:
        framework_name = delegate
    fitted = [
        _fit(fw, dev) for (fw, dev) in ANCHORS if fw == framework_name
    ]
    if fitted:
        return serial_sum(fitted) / len(fitted)
    return 1.0


def efficiency_scale(framework_name: str, device_name: str) -> float:
    """Calibrated efficiency multiplier for a (framework, device) pair."""
    return _fit(framework_name, device_name)


def calibration_report() -> list[dict]:
    """Fit every anchor and report achieved vs target latency."""
    report = []
    for (framework_name, device_name), (model_name, target_s, source) in ANCHORS.items():
        scale = _fit(framework_name, device_name)
        fixed, terms = _latency_components(framework_name, device_name, model_name)
        achieved = _latency_at(scale, fixed, terms)
        report.append(
            {
                "framework": framework_name,
                "device": device_name,
                "model": model_name,
                "source": source,
                "target_s": target_s,
                "achieved_s": achieved,
                "scale": scale,
                "clamped": scale >= MAX_SCALE,
            }
        )
    return report
