"""Extension experiments beyond the paper's published figures.

Six studies that extend the characterization along axes the paper motivates
but does not quantify: batch-size crossover (Section VI-C's thesis),
pruning exploitation (Table II), datatype sensitivity, recurrent models
(Section II future work), thermally-sustained throughput (Figure 14 closed
into performance), and the Pareto frontier of Figure 12.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis import (
    ParetoPoint,
    batch_size_sweep,
    dtype_sweep,
    pareto_frontier,
    simulate_sustained,
    sparsity_sweep,
)
from repro.core.result import ResultTable
from repro.engine import InferenceSession
from repro.engine.cache import cached_graph
from repro.frameworks import load_framework
from repro.harness.figures import fig12_time_vs_power
from repro.hardware import load_device
from repro.runtime import Scenario, default_runner

_RUNNER = default_runner()

RNN_MODELS = ("CharRNN-LSTM", "LSTM-PTB", "GRU-Encoder")


def ext_batch_crossover() -> ResultTable:
    """Per-inference latency of ResNet-50 vs batch size, edge vs HPC.

    Quantifies the paper's core Section VI-C argument: HPC platforms are
    throughput machines, so batching shrinks their per-inference cost far
    faster than the TX2's — the Xeon crosses below the TX2 within a few
    batches even though it loses at batch 1.
    """
    table = batch_size_sweep(
        "ResNet-50",
        ("Jetson TX2", "Xeon E5-2696 v4", "GTX Titan X", "RTX 2080"),
    )
    tx2 = {c: v for c, v in zip(table.columns, [table.row("Jetson TX2").get(c) for c in table.columns])}
    xeon_row = table.row("Xeon E5-2696 v4")
    crossover = next(
        (column for column in table.columns
         if xeon_row.get(column) is not None and xeon_row[column] < tx2[column]),
        None,
    )
    table.add_note(
        f"Xeon crosses below Jetson TX2 at {crossover or 'no batch in range'} "
        "(it loses the single-batch contest the paper studies)"
    )
    return table


def ext_pruning_exploitation() -> ResultTable:
    """Latency vs weight sparsity: exploiters vs non-exploiters (Table II)."""
    table = sparsity_sweep(
        "ResNet-50", "Raspberry Pi 3B",
        framework_names=("TensorFlow", "TFLite", "PyTorch", "Caffe"),
    )
    return table


def ext_dtype_sensitivity() -> ResultTable:
    """TensorRT on Jetson Nano across FP32/FP16/INT8 deployments."""
    table = dtype_sweep("ResNet-50", "Jetson Nano", "TensorRT")
    return table


def ext_rnn_models() -> ResultTable:
    """Recurrent models across platforms — the paper's future work.

    The headline: the sequential recurrence cannot fill wide units, so the
    effective MAC rate on GPUs collapses relative to CNNs.
    """
    table = ResultTable(
        "Extension: recurrent models (LSTM/GRU) across platforms",
        ["device", "framework", "latency_ms", "gmacs_per_s", "peak_fraction"],
        caption="peak_fraction = achieved MAC rate over the unit's peak; "
        "compare with ~0.2 for CNNs on the same stacks.",
    )
    for model_name in RNN_MODELS:
        for device_name in ("Raspberry Pi 3B", "Jetson TX2", "Jetson Nano",
                            "Xeon E5-2696 v4", "RTX 2080"):
            entry = _first_deployable(model_name, device_name)
            if entry is None:
                table.add_row(f"{model_name} @ {device_name}", device=device_name,
                              framework="(fails)", latency_ms=None,
                              gmacs_per_s=None, peak_fraction=None)
                continue
            framework_name, session = entry
            macs = session.deployed.graph.total_macs
            rate = macs / session.latency_s
            peak = session.deployed.unit.peak(session.deployed.weight_dtype)
            table.add_row(
                f"{model_name} @ {device_name}",
                device=device_name,
                framework=framework_name,
                latency_ms=session.latency_s * 1e3,
                gmacs_per_s=rate / 1e9,
                peak_fraction=rate / peak,
            )
    return table


def _first_deployable(model_name: str, device_name: str):
    return _RUNNER.first_session(model_name, device_name,
                                 default=("PyTorch", "TensorFlow"))


def ext_sustained_throughput() -> ResultTable:
    """Burst vs thermally-sustained throughput (Figure 14 made quantitative).

    Includes a DVFS-enabled Raspberry Pi variant: with firmware throttling
    at 60 degC the device survives the soak at reduced speed instead of
    tripping its shutdown limit.
    """
    table = ResultTable(
        "Extension: burst vs sustained throughput under Inception-v4",
        ["framework", "burst_fps", "sustained_fps", "slowdown", "outcome"],
        caption="30-minute soak at 22 degC ambient; sustained_fps = 0 means "
        "thermal shutdown.",
    )
    for device_name in ("Raspberry Pi 3B", "Jetson TX2", "Jetson Nano",
                        "EdgeTPU", "Movidius NCS"):
        entry = _first_deployable("Inception-v4", device_name)
        assert entry is not None  # Inception-v4 deploys on all five (Table V)
        framework_name, session = entry
        result = simulate_sustained(session)
        outcome = "shutdown" if result.shutdown else (
            "throttled" if result.throttle_events else "stable")
        table.add_row(
            device_name,
            framework=framework_name,
            burst_fps=result.burst_fps,
            sustained_fps=result.sustained_fps,
            slowdown=result.slowdown,
            outcome=outcome,
        )

    # DVFS variant: the same Raspberry Pi with the firmware soft limit on.
    rpi = load_device("Raspberry Pi 3B")
    throttling_spec = dataclasses.replace(
        rpi.thermal, throttle_c=60.0, throttle_stop_c=55.0, throttle_clock_factor=0.6)
    throttling_rpi = dataclasses.replace(rpi, thermal=throttling_spec)
    deployed = load_framework("TFLite").deploy(cached_graph("Inception-v4"), throttling_rpi)
    # Deploys onto a mutated (DVFS-limited) device the Runner cannot name.
    result = simulate_sustained(InferenceSession(deployed))  # repro: allow[ARCH001]
    table.add_row(
        "Raspberry Pi 3B (DVFS)",
        framework="TFLite",
        burst_fps=result.burst_fps,
        sustained_fps=result.sustained_fps,
        slowdown=result.slowdown,
        outcome="shutdown" if result.shutdown else "throttled",
    )
    return table


def ext_cloud_edge_split() -> ResultTable:
    """Neurosurgeon-style cloud-edge split (related-work line, built).

    For each (model, edge device, link): where does the latency-optimal cut
    land — fully local, fully offloaded, or an interior split?  Reproduces
    the offloading trade-off the paper's introduction frames (privacy and
    connectivity aside, offloading only wins when the link can carry it).
    """
    from repro.distribution import SplitPlanner, load_link

    table = ResultTable(
        "Extension: latency-optimal cloud-edge split (remote = GTX Titan X)",
        ["link", "all_edge_ms", "all_remote_ms", "best_ms", "best_cut", "decision"],
    )
    remote_device = load_device("GTX Titan X")
    for model_name, edge_name, edge_framework in (
        ("VGG16", "Raspberry Pi 3B", "PyTorch"),
        ("MobileNet-v2", "Jetson TX2", "PyTorch"),
        ("ResNet-50", "Jetson TX2", "PyTorch"),
    ):
        graph = cached_graph(model_name)
        edge = load_framework(edge_framework).deploy(graph, load_device(edge_name))
        remote = load_framework("PyTorch").deploy(graph, remote_device)
        base = SplitPlanner(edge, remote, load_link("ethernet"))
        for link_name in ("ethernet", "wifi", "bluetooth"):
            # Reprice the shared per-op timings per link instead of
            # rebuilding two engine sessions each time.
            planner = (base if link_name == "ethernet"
                       else base.with_link(load_link(link_name)))
            best = planner.best()
            if best.cut.index == 0:
                decision = "offload all"
            elif best.is_all_edge:
                decision = "stay local"
            else:
                decision = "split"
            table.add_row(
                f"{model_name} @ {edge_name} / {link_name}",
                link=link_name,
                all_edge_ms=planner.all_edge().total_s * 1e3,
                all_remote_ms=planner.all_remote().total_s * 1e3,
                best_ms=best.total_s * 1e3,
                best_cut=best.cut.after_op or "(input)",
                decision=decision,
            )
    return table


def ext_collaborative_pipeline() -> ResultTable:
    """Model-parallel pipelining across Raspberry Pis (the authors' own
    collaborative-IoT research line, built on this engine)."""
    from repro.distribution import load_link, partition_pipeline

    table = ResultTable(
        "Extension: TinyYolo pipelined across Raspberry Pis (WiFi)",
        ["throughput_fps", "speedup", "bottleneck_ms", "end_to_end_ms"],
        caption="Throughput scales until one indivisible convolution becomes "
        "the bottleneck stage.",
    )
    deployed = load_framework("TensorFlow").deploy(
        cached_graph("TinyYolo"), load_device("Raspberry Pi 3B"))
    link = load_link("wifi")
    baseline = partition_pipeline(deployed, 1, link).throughput_fps
    for num_devices in (1, 2, 3, 4, 6, 8):
        plan = partition_pipeline(deployed, num_devices, link)
        table.add_row(
            f"{num_devices} device(s)",
            throughput_fps=plan.throughput_fps,
            speedup=plan.throughput_fps / baseline,
            bottleneck_ms=plan.bottleneck_s * 1e3,
            end_to_end_ms=plan.pipeline_latency_s * 1e3,
        )
    return table


def ext_serving_deadlines() -> ResultTable:
    """Streaming-camera serving: queueing turns latency into percentiles.

    The paper's single-batch framing comes from "the limited number of
    available requests in a given time"; this extension makes the request
    process explicit.  A 10 fps camera feeds each device; the fleet's
    Lindley kernel serves the stream FIFO, with a seeded 2% lognormal
    jitter on each service time, and reports p99 end-to-end latency and
    whether a 150 ms deadline holds once queueing is accounted for.
    """
    from repro.fleet import SojournSummary, lindley
    from repro.workloads import PeriodicArrivals

    table = ResultTable(
        "Extension: 10 fps MobileNet-v2 stream, FIFO serving per device",
        ["framework", "service_ms", "utilization", "p99_ms", "meets_150ms"],
        caption="Devices slower than the frame period saturate: their queue "
        "(and p99) grows without bound.",
    )
    arrivals = PeriodicArrivals(10.0).generate(60.0)
    for device_name in ("Raspberry Pi 3B", "Jetson TX2", "Jetson Nano",
                        "EdgeTPU", "Movidius NCS"):
        entry = _first_deployable("MobileNet-v2", device_name)
        assert entry is not None
        framework_name, session = entry
        service_s = session.latency_s * np.random.default_rng(9).lognormal(
            0.0, 0.02, size=arrivals.size)
        busy_s = np.cumsum(service_s)
        finish_s = lindley(arrivals, np.concatenate(([0.0], busy_s[:-1])),
                           service_s, 0.0)
        sojourn = SojournSummary.from_times(finish_s - arrivals)
        table.add_row(
            device_name,
            framework=framework_name,
            service_ms=session.latency_s * 1e3,
            utilization=float(busy_s[-1] / max(finish_s[-1], arrivals[-1])),
            p99_ms=sojourn.p99_s * 1e3,
            meets_150ms=sojourn.p99_s <= 0.150,
        )
    return table


def ext_power_modes() -> ResultTable:
    """Jetson DVFS modes: the latency/power/energy trade the paper's
    default-mode measurements sit on one side of."""
    from repro.hardware import list_operating_points
    from repro.measurement.energy import EnergyMeter

    table = ResultTable(
        "Extension: Jetson power modes running ResNet-50",
        ["mode", "latency_ms", "power_w", "energy_mj"],
        caption="Budget modes slow inference but can improve energy per "
        "inference (voltage scaling beats the stretched runtime).",
    )
    for device_name, framework_name in (("Jetson TX2", "PyTorch"),
                                        ("Jetson Nano", "TensorRT")):
        for point in list_operating_points(device_name):
            record = _RUNNER.run(
                Scenario("ResNet-50", device_name, framework_name,
                         power_mode=point.name),
                use_timer=False, energy_meter=EnergyMeter())
            table.add_row(
                f"{device_name} @ {point.name}",
                mode=point.name,
                latency_ms=record.model_latency_s * 1e3,
                power_w=record.power_w,
                energy_mj=record.energy_j * 1e3,
            )
    return table


def ext_batch_serving() -> ResultTable:
    """Dynamic batching under load: the cloud-serving regime quantified.

    A Poisson request stream hits an RTX 2080 serving ResNet-50: a
    one-replica fleet pool with batch limit 1 or 32, routed in one epoch.
    The single-batch server (the edge regime the paper studies) saturates
    just above 120 req/s; the dynamic-batching server rides the engine's
    batch amortization far past it.
    """
    from repro.fleet import FleetSimulation, PoolSpec
    from repro.workloads import PoissonArrivals

    table = ResultTable(
        "Extension: ResNet-50 on RTX 2080, FIFO vs dynamic batching (max 32)",
        ["rate_rps", "p99_ms_batch1", "p99_ms_batch32", "mean_batch",
         "util_batch1", "util_batch32"],
        caption="p99 end-to-end latency per arrival rate; batch-1 capacity "
        "is ~120 req/s.",
    )
    scenario = Scenario("ResNet-50", "RTX 2080", "PyTorch")
    single_pool, batched_pool = (
        FleetSimulation([PoolSpec(name="RTX 2080", scenario=scenario,
                                  replicas=1, max_batch=max_batch)],
                        epochs=1, runner=_RUNNER)
        for max_batch in (1, 32))
    for rate in (50.0, 100.0, 200.0, 400.0):
        arrivals = PoissonArrivals(rate, seed=21).generate(20.0)
        single = single_pool.run(arrivals).pools[0]
        batched = batched_pool.run(arrivals).pools[0]
        table.add_row(
            f"{rate:.0f} req/s",
            rate_rps=rate,
            p99_ms_batch1=single.sojourn.p99_s * 1e3,
            p99_ms_batch32=batched.sojourn.p99_s * 1e3,
            mean_batch=batched.mean_batch_size,
            util_batch1=single.utilization,
            util_batch32=batched.utilization,
        )
    return table


def ext_pareto_frontier() -> ResultTable:
    """Which Figure 12 points are Pareto-optimal in (latency, power)?"""
    scatter = fig12_time_vs_power()
    points = [
        ParetoPoint(label=row.label, latency_s=row["latency_ms"] / 1e3,
                    power_w=row["power_w"])
        for row in scatter
    ]
    frontier = pareto_frontier(points)
    frontier_labels = {p.label for p in frontier}
    table = ResultTable(
        "Extension: Pareto frontier of the Figure 12 scatter",
        ["latency_ms", "power_w", "device"],
        caption="Non-dominated (latency, power) configurations, fastest first.",
    )
    for point in frontier:
        table.add_row(
            point.label,
            latency_ms=point.latency_s * 1e3,
            power_w=point.power_w,
            device=point.label.split(" / ")[0],
        )
    devices_on_frontier = {p.label.split(" / ")[0] for p in frontier}
    table.add_note(f"devices on the frontier: {', '.join(sorted(devices_on_frontier))}")
    table.add_note(f"{len(frontier_labels)} of {len(points)} points are non-dominated")
    return table
