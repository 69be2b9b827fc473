"""Figure generators: one function per paper figure.

Each returns a :class:`ResultTable` holding measured values and, where the
paper's numbers are legible, the reference values and their ratio.  These
functions are what the ``benchmarks/`` suite drives.
"""

from __future__ import annotations

from repro.core.errors import ReproError
from repro.core.result import ResultTable, geometric_mean
from repro.core.summation import serial_sum
from repro.engine.cache import cached_graph
from repro.harness import paper_data as paper
from repro.harness.report import ratio_or_none
from repro.hardware import load_device
from repro.measurement import EnergyMeter, ThermalCamera
from repro.profiling import profile_stack
from repro.runtime import BEST_FRAMEWORK_CANDIDATES, Scenario, default_runner

__all__ = [
    "BEST_FRAMEWORK_CANDIDATES",  # re-exported from repro.runtime
]

_RUNNER = default_runner()


# ------------------------------------------------------------------ Fig 1
def fig01_flop_per_param() -> ResultTable:
    table = ResultTable(
        "Figure 1: models sorted by FLOP/Param for one inference",
        ["flop_per_param", "paper_flop_per_param", "gflop", "params_m"],
        caption="FLOP counts one multiply-accumulate as one operation; the "
        "paper's YOLOv3/C3D entries use DarkNet's 2-ops convention.",
    )
    rows = []
    for model_name in paper.TABLE1_MODELS:
        graph = cached_graph(model_name)
        _input, gflop, params_m = paper.TABLE1_MODELS[model_name]
        rows.append((graph.flop_per_param, model_name, graph, gflop, params_m))
    for flop_per_param, model_name, graph, gflop, params_m in sorted(rows):
        table.add_row(
            model_name,
            flop_per_param=flop_per_param,
            paper_flop_per_param=gflop * 1e9 / (params_m * 1e6),
            gflop=graph.total_macs / 1e9,
            params_m=graph.total_params / 1e6,
        )
    return table


# ------------------------------------------------------------------ Fig 2
def fig02_best_framework() -> ResultTable:
    table = ResultTable(
        "Figure 2: time per inference on edge devices, best framework each",
        ["framework", "measured_ms", "paper_ms", "ratio"],
        caption="'-' in paper_ms: value not legible in the published scan, "
        "or not reported (Table V incompatibilities).",
    )
    for device_name, references in paper.FIG2_BEST_S.items():
        for model_name in paper.FIG2_MODELS:
            best = _RUNNER.best_latency(model_name, device_name)
            reference = references.get(model_name)
            if best is None:
                table.add_row(f"{device_name} / {model_name}", framework="(fails)",
                              measured_ms=None, paper_ms=_ms(reference), ratio=None)
                continue
            framework_name, latency = best
            table.add_row(
                f"{device_name} / {model_name}",
                framework=framework_name,
                measured_ms=latency * 1e3,
                paper_ms=_ms(reference),
                ratio=ratio_or_none(latency, reference),
            )
    return table


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


# -------------------------------------------------------------- Figs 3, 4
FIG34_MODELS = ("ResNet-50", "ResNet-101", "Xception", "MobileNet-v2",
                "Inception-v4", "AlexNet", "VGG16")
FIG34_FRAMEWORKS = ("DarkNet", "Caffe", "TensorFlow", "PyTorch")


def _cross_framework(device_name: str, title: str, unit_scale: float,
                     unit_name: str) -> ResultTable:
    table = ResultTable(
        title,
        [f"{fw} ({unit_name})" for fw in FIG34_FRAMEWORKS],
        caption="'-' marks the paper's 'Not Available' (no implementation) "
        "or 'Memory Error' outcomes.",
    )
    for model_name in FIG34_MODELS:
        cells = {}
        for framework_name in FIG34_FRAMEWORKS:
            column = f"{framework_name} ({unit_name})"
            record = _RUNNER.run(Scenario(model_name, device_name, framework_name))
            cells[column] = None if record.failed else record.latency_s * unit_scale
        table.add_row(model_name, **cells)
    return table


def fig03_rpi_frameworks() -> ResultTable:
    return _cross_framework(
        "Raspberry Pi 3B",
        "Figure 3: time per inference on RPi across frameworks",
        1.0,
        "s",
    )


def fig04_tx2_frameworks() -> ResultTable:
    return _cross_framework(
        "Jetson TX2",
        "Figure 4: time per inference on Jetson TX2 across frameworks",
        1e3,
        "ms",
    )


# ------------------------------------------------------------------ Fig 5
def fig05_software_stack(model_name: str = "ResNet-18") -> ResultTable:
    table = ResultTable(
        "Figure 5: software-stack profiles (TF/PyTorch x RPi/TX2)",
        ["measured_fraction", "paper_fraction"],
        caption="Fractions of total cProfile time per function bucket; "
        "RPi profiled over 30 inferences, TX2 over 1000 (Section VI-B3).",
    )
    for (device_name, framework_name), targets in paper.FIG5_FRACTIONS.items():
        session = _RUNNER.session(Scenario(model_name, device_name, framework_name))
        profile = profile_stack(session, paper.FIG5_RUNS[device_name])
        fractions = profile.fractions()
        short = {"Raspberry Pi 3B": "RPi", "Jetson TX2": "TX2"}[device_name]
        for bucket, target in targets.items():
            table.add_row(
                f"{short}/{framework_name}: {bucket}",
                measured_fraction=fractions.get(bucket, 0.0),
                paper_fraction=target,
            )
    return table


# ------------------------------------------------------------------ Fig 6
def fig06_gtx_tf_vs_pytorch() -> ResultTable:
    table = ResultTable(
        "Figure 6: time per inference on GTX Titan X (TensorFlow vs PyTorch)",
        ["pytorch_ms", "tensorflow_ms", "speedup"],
        caption="Speedup = TensorFlow / PyTorch; the paper reports PyTorch "
        "faster across the board on HPC GPUs.",
    )
    for model_name in paper.FIG6_MODELS:
        pytorch = _RUNNER.measure(Scenario(model_name, "GTX Titan X", "PyTorch"))
        tensorflow = _RUNNER.measure(Scenario(model_name, "GTX Titan X", "TensorFlow"))
        table.add_row(
            model_name,
            pytorch_ms=pytorch * 1e3,
            tensorflow_ms=tensorflow * 1e3,
            speedup=tensorflow / pytorch,
        )
    return table


# ------------------------------------------------------------------ Fig 7
def fig07_nano_tensorrt() -> ResultTable:
    table = ResultTable(
        "Figure 7: Jetson Nano, PyTorch vs TensorRT",
        ["pytorch_ms", "tensorrt_ms", "speedup",
         "paper_pytorch_ms", "paper_tensorrt_ms", "paper_speedup"],
    )
    speedups = []
    for model_name in paper.FIG7_MODELS:
        pytorch = _RUNNER.measure(Scenario(model_name, "Jetson Nano", "PyTorch"))
        tensorrt = _RUNNER.measure(Scenario(model_name, "Jetson Nano", "TensorRT"))
        paper_pt = paper.FIG7_NANO_S["PyTorch"][model_name]
        paper_trt = paper.FIG7_NANO_S["TensorRT"][model_name]
        speedups.append(pytorch / tensorrt)
        table.add_row(
            model_name,
            pytorch_ms=pytorch * 1e3,
            tensorrt_ms=tensorrt * 1e3,
            speedup=pytorch / tensorrt,
            paper_pytorch_ms=paper_pt * 1e3,
            paper_tensorrt_ms=paper_trt * 1e3,
            paper_speedup=paper_pt / paper_trt,
        )
    table.add_note(
        f"average speedup {serial_sum(speedups) / len(speedups):.2f}x "
        f"(paper: {paper.FIG7_AVG_SPEEDUP}x)"
    )
    return table


# ------------------------------------------------------------------ Fig 8
def fig08_rpi_tflite() -> ResultTable:
    table = ResultTable(
        "Figure 8: RPi, TensorFlow vs PyTorch vs TFLite",
        ["pytorch_s", "tensorflow_s", "tflite_s",
         "speedup_vs_tf", "speedup_vs_pt", "paper_tflite_s"],
    )
    tf_speedups, pt_speedups = [], []
    for model_name in paper.FIG8_MODELS:
        pytorch = _RUNNER.measure(Scenario(model_name, "Raspberry Pi 3B", "PyTorch"))
        tensorflow = _RUNNER.measure(Scenario(model_name, "Raspberry Pi 3B", "TensorFlow"))
        tflite = _RUNNER.measure(Scenario(model_name, "Raspberry Pi 3B", "TFLite"))
        tf_speedups.append(tensorflow / tflite)
        pt_speedups.append(pytorch / tflite)
        table.add_row(
            model_name,
            pytorch_s=pytorch,
            tensorflow_s=tensorflow,
            tflite_s=tflite,
            speedup_vs_tf=tensorflow / tflite,
            speedup_vs_pt=pytorch / tflite,
            paper_tflite_s=paper.FIG8_RPI_S["TFLite"][model_name],
        )
    table.add_note(
        f"average TFLite speedup over TF {serial_sum(tf_speedups) / len(tf_speedups):.2f}x "
        f"(paper {paper.FIG8_SPEEDUP_OVER_TF}x), over PyTorch "
        f"{serial_sum(pt_speedups) / len(pt_speedups):.2f}x (paper {paper.FIG8_SPEEDUP_OVER_PT}x)"
    )
    return table


# ------------------------------------------------------------- Figs 9, 10
def fig09_edge_vs_hpc() -> ResultTable:
    table = ResultTable(
        "Figure 9: edge vs HPC time per inference (PyTorch)",
        [f"{p} (ms)" for p in paper.FIG9_PLATFORMS],
    )
    for model_name in paper.FIG9_MODELS:
        cells = {}
        for platform in paper.FIG9_PLATFORMS:
            record = _RUNNER.run(Scenario(model_name, platform, "PyTorch"))
            cells[f"{platform} (ms)"] = None if record.failed else record.latency_s * 1e3
        table.add_row(model_name, **cells)
    return table


def fig10_speedup_over_tx2() -> ResultTable:
    table = ResultTable(
        "Figure 10: speedup over Jetson TX2 (PyTorch)",
        [f"{p} (x)" for p in paper.FIG9_PLATFORMS[1:]],
        caption=f"paper geomean across all models/platforms: "
        f"{paper.FIG10_GEOMEAN_SPEEDUP}x",
    )
    speedups = []
    for model_name in paper.FIG9_MODELS:
        baseline = _RUNNER.measure(Scenario(model_name, "Jetson TX2", "PyTorch"))
        cells = {}
        for platform in paper.FIG9_PLATFORMS[1:]:
            latency = _RUNNER.measure(Scenario(model_name, platform, "PyTorch"))
            speedup = baseline / latency
            speedups.append(speedup)
            cells[f"{platform} (x)"] = speedup
        table.add_row(model_name, **cells)
    table.add_note(f"measured geomean: {geometric_mean(speedups):.2f}x")
    return table


# ----------------------------------------------------------------- Fig 11
FIG11_PLATFORMS = ("Raspberry Pi 3B", "Jetson Nano", "Jetson TX2", "EdgeTPU",
                   "Movidius NCS", "GTX Titan X")


def fig11_energy() -> ResultTable:
    table = ResultTable(
        "Figure 11: energy per inference across platforms",
        ["framework", "energy_mj", "paper_mj"],
        caption="Energy = measured total device power x time per inference "
        "(log-scale bars in the paper).",
    )
    meter = EnergyMeter(seed=11)
    for device_name in FIG11_PLATFORMS:
        for model_name in paper.FIG11_MODELS:
            entry = _energy_entry(device_name, model_name, meter)
            reference = paper.FIG11_ENERGY_J.get((device_name, model_name))
            if entry is None:
                table.add_row(f"{device_name} / {model_name}", framework="(fails)",
                              energy_mj=None,
                              paper_mj=None if reference is None else reference * 1e3)
                continue
            framework_name, energy_j = entry
            table.add_row(
                f"{device_name} / {model_name}",
                framework=framework_name,
                energy_mj=energy_j * 1e3,
                paper_mj=None if reference is None else reference * 1e3,
            )
    return table


def _energy_entry(device_name: str, model_name: str, meter: EnergyMeter):
    entry = _RUNNER.first_session(model_name, device_name)
    if entry is None:
        return None
    framework_name, session = entry
    return framework_name, float(meter.measure(session))


# ----------------------------------------------------------------- Fig 12
def fig12_time_vs_power() -> ResultTable:
    table = ResultTable(
        "Figure 12: inference time vs active power (log-log scatter)",
        ["framework", "power_w", "latency_ms"],
        caption="Each row is one (platform, model) point; lower-left is "
        "fastest and most efficient.",
    )
    for device_name in FIG11_PLATFORMS:
        for model_name in paper.FIG2_MODELS:
            candidates = _RUNNER.candidates_for(device_name, default=("PyTorch",))
            for framework_name in candidates:
                record = _RUNNER.run(Scenario(model_name, device_name, framework_name),
                                     use_timer=False)
                if record.failed:
                    continue
                table.add_row(
                    f"{device_name} / {model_name}",
                    framework=framework_name,
                    power_w=record.power_w,
                    latency_ms=record.model_latency_s * 1e3,
                )
                break
    return table


# ----------------------------------------------------------------- Fig 13
def fig13_virtualization() -> ResultTable:
    table = ResultTable(
        "Figure 13: bare-metal vs Docker on RPi (TensorFlow)",
        ["bare_s", "docker_s", "slowdown", "paper_bare_s", "paper_docker_s"],
        caption="paper finding: overhead within 5% in all cases",
    )
    for model_name in paper.FIG13_MODELS:
        scenario = Scenario(model_name, "Raspberry Pi 3B", "TensorFlow")
        bare = _RUNNER.run(scenario, use_timer=False)
        docker = _RUNNER.run(
            Scenario(model_name, "Raspberry Pi 3B", "TensorFlow", containerized=True),
            use_timer=False)
        table.add_row(
            model_name,
            bare_s=bare.latency_s,
            docker_s=docker.latency_s,
            slowdown=docker.container_overhead,
            paper_bare_s=paper.FIG13_BARE_S[model_name],
            paper_docker_s=paper.FIG13_DOCKER_S[model_name],
        )
    return table


# ----------------------------------------------------------------- Fig 14
def fig14_temperature_curves(sample_every_s: float = 60.0) -> ResultTable:
    """The actual Figure 14 curves: surface temperature vs time per device.

    Long-format table (one row per sample) so the curves themselves — the
    warm-up exponential, the fan kink, the Raspberry Pi's shutdown — are
    reproduced, not just their endpoints.
    """
    table = ResultTable(
        "Figure 14 (curves): surface temperature vs time under Inception-v4",
        ["device", "time_s", "surface_c", "fan_on", "shutdown"],
        caption=f"Sampled every {sample_every_s:.0f} s of simulated soak.",
    )
    camera = ThermalCamera(seed=140)
    for device_name in paper.FIG14_DEVICES:
        device = load_device(device_name)
        entry = _energy_entry(device_name, paper.FIG14_MODEL, EnergyMeter())
        assert entry is not None
        framework_name, _energy = entry
        session = _RUNNER.session(Scenario(paper.FIG14_MODEL, device_name, framework_name))
        power = device.power.power(session.utilization)
        simulator = device.thermal_simulator()
        simulator.temperature_c = device.thermal.steady_state_c(device.power.idle_w)
        readings = camera.record_soak(simulator, power, dt_s=5.0)
        fan_time = _first_event_time(simulator, "fan_on")
        shutdown_time = _first_event_time(simulator, "shutdown")
        next_sample = 0.0
        for reading in readings:
            if reading.time_s + 1e-9 < next_sample and reading is not readings[-1]:
                continue
            table.add_row(
                f"{device_name} @ {reading.time_s:.0f}s",
                device=device_name,
                time_s=reading.time_s,
                surface_c=reading.surface_c,
                fan_on=reading.time_s >= fan_time,
                shutdown=reading.time_s >= shutdown_time,
            )
            next_sample += sample_every_s
    return table


def _first_event_time(simulator, kind: str) -> float:
    for event in simulator.events:
        if event.kind == kind:
            return event.time_s
    return float("inf")


def fig14_temperature() -> ResultTable:
    table = ResultTable(
        "Figure 14: temperature behaviour while running Inception-v4",
        ["idle_surface_c", "steady_surface_c", "events", "paper_idle_c", "expectation"],
        caption="Surface temperatures as a thermal camera sees them; events "
        "from the RC simulation (fan activation, shutdown).",
    )
    camera = ThermalCamera(seed=14)
    for device_name in paper.FIG14_DEVICES:
        device = load_device(device_name)
        entry = _energy_entry(device_name, paper.FIG14_MODEL, EnergyMeter())
        if entry is None:
            # C3D-style failures cannot happen here: Inception-v4 deploys on
            # every Figure 14 device (Table V).
            raise ReproError(f"{paper.FIG14_MODEL} failed to deploy on {device_name}")
        framework_name, _energy = entry
        session = _RUNNER.session(Scenario(paper.FIG14_MODEL, device_name, framework_name))
        power = device.power.power(session.utilization)
        simulator = device.thermal_simulator()
        simulator.temperature_c = device.thermal.steady_state_c(device.power.idle_w)
        readings = camera.record_soak(simulator, power)
        events = ", ".join(f"{e.kind}@{e.temperature_c:.0f}C" for e in simulator.events) or "steady"
        table.add_row(
            device_name,
            idle_surface_c=readings[0].surface_c,
            steady_surface_c=readings[-1].surface_c,
            events=events,
            paper_idle_c=paper.TABLE6_COOLING[device_name][2],
            expectation=paper.FIG14_EXPECTATIONS[device_name],
        )
    return table
