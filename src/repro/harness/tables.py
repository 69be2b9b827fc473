"""Table generators: Tables I, II, III, V and VI of the paper."""

from __future__ import annotations

from repro.core.result import ResultTable
from repro.engine.cache import cached_graph
from repro.frameworks import load_framework
from repro.frameworks.compat import TABLE_V_FRAMEWORKS, compatibility_matrix
from repro.harness import paper_data as paper
from repro.hardware import list_devices, load_device
from repro.measurement.power_meter import PowerAnalyzer, USBMultimeter, average_power_w

# Frameworks in Table II's column order.
TABLE2_FRAMEWORKS = ("TensorFlow", "TFLite", "Caffe", "NCSDK", "PyTorch",
                     "TensorRT", "DarkNet")


def table1_models() -> ResultTable:
    table = ResultTable(
        "Table I: DNN models (FLOP, parameters, compute intensity)",
        ["input", "gflop", "paper_gflop", "params_m", "paper_params_m", "flop_per_param"],
        caption="FLOP counts multiply-accumulates; paper YOLOv3/C3D entries "
        "follow DarkNet's 2-ops convention (see EXPERIMENTS.md).",
    )
    for model_name, (input_size, gflop, params_m) in paper.TABLE1_MODELS.items():
        graph = cached_graph(model_name)
        table.add_row(
            model_name,
            input="x".join(str(d) for d in graph.inputs[0].output_shape.dims[1:]),
            gflop=graph.total_macs / 1e9,
            paper_gflop=gflop,
            params_m=graph.total_params / 1e6,
            paper_params_m=params_m,
            flop_per_param=graph.flop_per_param,
        )
    return table


def table2_frameworks() -> ResultTable:
    table = ResultTable(
        "Table II: framework specifications and optimizations",
        list(TABLE2_FRAMEWORKS),
        caption="Rows mirror the paper's Table II; stars rendered as 1-3.",
    )
    frameworks = {name: load_framework(name) for name in TABLE2_FRAMEWORKS}
    rows: list[tuple[str, str]] = [
        ("Language", "language"),
        ("Industry backed", "industry_backed"),
        ("Training framework", "training_framework"),
        ("Usability", "usability"),
        ("Adding new models", "adding_new_models"),
        ("Pre-defined models", "predefined_models"),
        ("Documentation", "documentation"),
        ("No extra steps", "no_extra_steps"),
        ("Mobile deployment", "mobile_deployment"),
        ("Low-level modifications", "low_level_modifications"),
        ("Compatibility", "compatibility_with_others"),
        ("Quantization", "quantization"),
        ("Mixed-precision", "mixed_precision"),
        ("Dynamic graph", "dynamic_graph"),
        ("Pruning", "pruning_exploit"),
        ("Fusion", "fusion"),
        ("Auto tuning", "auto_tuning"),
        ("Half-precision", "half_precision"),
    ]
    for label, attribute in rows:
        table.add_row(label, **{
            name: getattr(framework.capabilities, attribute)
            for name, framework in frameworks.items()
        })
    return table


def table3_devices() -> ResultTable:
    table = ResultTable(
        "Table III: hardware platforms, measured idle and average power",
        ["category", "memory", "idle_w", "paper_idle_w", "average_w", "paper_average_w"],
        caption="Idle/average watts read with the Section V instruments "
        "against the device power models.",
    )
    for device_name in list_devices():
        device = load_device(device_name)
        meter = (
            USBMultimeter(seed=3)
            if device_name in ("Raspberry Pi 3B", "EdgeTPU", "Movidius NCS")
            else PowerAnalyzer(seed=3)
        )
        idle = average_power_w(meter.record(lambda _t: device.power.idle_w, 10.0))
        average = average_power_w(meter.record(lambda _t: device.average_power_w(), 10.0))
        reference = paper.TABLE3_POWER_W.get(device_name, (None, None))
        table.add_row(
            device_name,
            category=device.category.value,
            memory=device.memory.describe(),
            idle_w=idle,
            paper_idle_w=reference[0],
            average_w=average,
            paper_average_w=reference[1],
        )
    return table


def table5_compat() -> ResultTable:
    table = ResultTable(
        "Table V: models and platforms compatibility matrix",
        list(TABLE_V_FRAMEWORKS) + ["matches_paper"],
        caption="Symbols: + runs, ^ dynamic-graph fallback, O code "
        "incompatibility, 4 TFLite conversion barrier, ^^ FPGA fabric spill.",
    )
    matrix = compatibility_matrix()
    for model_name, row in matrix.items():
        expected = paper.TABLE5_EXPECTED[model_name]
        cells = {device: result.status.symbol for device, result in row.items()}
        cells["matches_paper"] = all(
            cells[device] == expected[device] for device in expected
        )
        table.add_row(model_name, **cells)
    return table


def table6_cooling() -> ResultTable:
    table = ResultTable(
        "Table VI: cooling hardware and idle temperatures",
        ["heatsink", "fan", "idle_surface_c", "paper_idle_c"],
    )
    for device_name, (heatsink, fan, idle_c) in paper.TABLE6_COOLING.items():
        device = load_device(device_name)
        spec = device.thermal
        idle_surface = spec.steady_state_c(device.power.idle_w) - spec.surface_offset_c
        table.add_row(
            device_name,
            heatsink=spec.has_heatsink,
            fan=spec.has_fan,
            idle_surface_c=idle_surface,
            paper_idle_c=idle_c,
        )
    return table
