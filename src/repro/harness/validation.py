"""Programmatic validation of the paper's headline claims.

Each claim is a named check that runs the harness and reports pass/fail
with the measured evidence.  ``python -m repro validate`` drives this; the
integration test suite asserts the same facts with tighter bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.result import geometric_mean
from repro.core.summation import serial_sum
from repro.harness.registry import run_experiment
from repro.runtime import Scenario, default_runner

_RUNNER = default_runner()


def _latency(model_name: str, device_name: str, framework_name: str) -> float:
    """Timed seconds per inference through the shared Runner."""
    return _RUNNER.measure(Scenario(model_name, device_name, framework_name))


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    section: str
    statement: str
    passed: bool
    evidence: str


def _claim(claim_id: str, section: str, statement: str):
    def decorate(fn: Callable[[], tuple[bool, str]]):
        _CLAIMS.append((claim_id, section, statement, fn))
        return fn

    return decorate


_CLAIMS: list[tuple[str, str, str, Callable[[], tuple[bool, str]]]] = []


@_claim("tf-fastest-rpi", "VI-B1",
        "TensorFlow is the fastest general framework on the Raspberry Pi")
def _check_tf_rpi() -> tuple[bool, str]:
    tf = _latency("ResNet-50", "Raspberry Pi 3B", "TensorFlow")
    caffe = _latency("ResNet-50", "Raspberry Pi 3B", "Caffe")
    pytorch = _latency("ResNet-50", "Raspberry Pi 3B", "PyTorch")
    return tf < caffe and tf < pytorch, (
        f"ResNet-50 on RPi: TF {tf:.2f} s, Caffe {caffe:.2f} s, PyTorch {pytorch:.2f} s"
    )


@_claim("pytorch-fastest-gpu", "VI-B1",
        "PyTorch beats TensorFlow on GPU platforms")
def _check_pt_gpu() -> tuple[bool, str]:
    pt = _latency("ResNet-50", "Jetson TX2", "PyTorch")
    tf = _latency("ResNet-50", "Jetson TX2", "TensorFlow")
    return pt < tf, f"ResNet-50 on TX2: PyTorch {pt * 1e3:.1f} ms, TF {tf * 1e3:.1f} ms"


@_claim("tensorrt-speedup", "VI-B2",
        "TensorRT speeds the Jetson Nano up ~4x over PyTorch on average")
def _check_tensorrt() -> tuple[bool, str]:
    table = run_experiment("fig07")
    speedups = table.column("speedup")
    average = serial_sum(speedups) / len(speedups)
    return 3.0 < average < 8.0, f"average speedup {average:.2f}x (paper 4.1x)"


@_claim("tflite-speedup", "VI-B2",
        "TFLite beats TensorFlow (~1.6x) and PyTorch on the RPi")
def _check_tflite() -> tuple[bool, str]:
    table = run_experiment("fig08")
    tf = table.column("speedup_vs_tf")
    average = serial_sum(tf) / len(tf)
    return all(s > 1 for s in tf) and average < 2.5, (
        f"TFLite over TF averages {average:.2f}x (paper 1.58x)"
    )


@_claim("hpc-geomean", "VI-C",
        "HPC platforms average only ~3x over the Jetson TX2 at batch 1")
def _check_geomean() -> tuple[bool, str]:
    speedups = []
    for model in ("ResNet-18", "ResNet-50", "VGG16", "MobileNet-v2", "C3D"):
        tx2 = _latency(model, "Jetson TX2", "PyTorch")
        for platform in ("Xeon E5-2696 v4", "GTX Titan X", "Titan Xp", "RTX 2080"):
            speedups.append(tx2 / _latency(model, platform, "PyTorch"))
    geo = geometric_mean(speedups)
    return 2.0 < geo < 5.0, f"geomean {geo:.2f}x (paper 2.99x)"


@_claim("xeon-single-batch", "VI-C",
        "The Xeon loses to the TX2 on compute-bound models, competes on VGG")
def _check_xeon() -> tuple[bool, str]:
    resnet = (_latency("ResNet-50", "Xeon E5-2696 v4", "PyTorch")
              / _latency("ResNet-50", "Jetson TX2", "PyTorch"))
    vgg = (_latency("VGG16", "Xeon E5-2696 v4", "PyTorch")
           / _latency("VGG16", "Jetson TX2", "PyTorch"))
    return resnet > 1.0 and vgg < 1.3, (
        f"Xeon/TX2 latency ratio: ResNet-50 {resnet:.2f}, VGG16 {vgg:.2f}"
    )


@_claim("docker-overhead", "VI-D", "Docker overhead stays within 5%")
def _check_docker() -> tuple[bool, str]:
    table = run_experiment("fig13")
    worst = max(table.column("slowdown"))
    return worst <= 0.05 + 1e-9, f"worst slowdown {worst:.1%}"


@_claim("energy-ordering", "VI-E",
        "RPi is the least energy-efficient platform; EdgeTPU reaches ~11 mJ")
def _check_energy() -> tuple[bool, str]:
    table = run_experiment("fig11")
    rpi = table.row("Raspberry Pi 3B / ResNet-18")["energy_mj"]
    edgetpu = table.row("EdgeTPU / MobileNet-v2")["energy_mj"]
    others = [table.row(f"{d} / ResNet-18")["energy_mj"]
              for d in ("Jetson TX2", "Jetson Nano", "Movidius NCS")]
    return rpi > max(others) and edgetpu < 20, (
        f"RPi {rpi:.0f} mJ vs others <= {max(others):.0f} mJ; "
        f"EdgeTPU MobileNet-v2 {edgetpu:.1f} mJ"
    )


@_claim("pareto-extremes", "VI-E",
        "Movidius has the lowest power, EdgeTPU the lowest latency (Fig. 12)")
def _check_pareto() -> tuple[bool, str]:
    table = run_experiment("ext-pareto")
    devices = {row["device"] for row in table}
    return {"EdgeTPU", "Movidius NCS"} <= devices, (
        f"frontier devices: {sorted(devices)}"
    )


@_claim("thermal-events", "VI-F",
        "RPi shuts down thermally; the Jetson fans engage; Movidius stays flattest")
def _check_thermal() -> tuple[bool, str]:
    table = run_experiment("fig14")
    rpi = "shutdown" in table.row("Raspberry Pi 3B")["events"]
    fans = all("fan_on" in table.row(d)["events"]
               for d in ("Jetson TX2", "Jetson Nano"))
    variations = {row.label: row["steady_surface_c"] - row["idle_surface_c"]
                  for row in table}
    movidius = min(variations, key=variations.get) == "Movidius NCS"
    return rpi and fans and movidius, (
        f"rpi shutdown={rpi}, fans={fans}, "
        f"lowest variation={min(variations, key=variations.get)}"
    )


@_claim("table5-exact", "VI-A", "The Table V compatibility matrix matches cell-for-cell")
def _check_table5() -> tuple[bool, str]:
    table = run_experiment("table5")
    matches = [row["matches_paper"] for row in table]
    return all(matches), f"{sum(matches)}/{len(matches)} rows match"


def validate_claims(claim_ids: list[str] | None = None) -> list[ClaimResult]:
    """Run all (or the named) claims and return their results."""
    selected = _CLAIMS
    if claim_ids:
        known = {claim_id for claim_id, *_ in _CLAIMS}
        unknown = set(claim_ids) - known
        if unknown:
            raise KeyError(f"unknown claims: {sorted(unknown)}")
        selected = [entry for entry in _CLAIMS if entry[0] in claim_ids]
    results = []
    for claim_id, section, statement, check in selected:
        passed, evidence = check()
        results.append(ClaimResult(claim_id, section, statement, passed, evidence))
    return results


def list_claims() -> list[str]:
    return [claim_id for claim_id, *_ in _CLAIMS]
