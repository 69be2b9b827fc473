"""Integration tests: the paper's headline findings must reproduce.

These are shape-level assertions (who wins, by roughly what factor, where
crossovers fall), not absolute-number matches — the substrate is a
simulator, not the authors' testbed.  Each test quotes the claim it checks.
"""


from repro.core.result import geometric_mean
from repro.harness import run_experiment
from repro.harness.paper_data import FIG9_MODELS
from repro.runtime import Scenario, default_runner

RUNNER = default_runner()


def latency_s(model: str, device: str, framework: str) -> float:
    """The cell's timed latency (the paper's loop, seeded per cell)."""
    return RUNNER.measure(Scenario(model, device, framework))


class TestSectionVIA:
    """Figure 2: per-device best configuration."""

    def test_gpu_or_edgetpu_usually_wins(self):
        """'In most cases, either GPU-based devices or EdgeTPU provides the
        best performance.'"""
        for model in ("ResNet-50", "MobileNet-v2", "Inception-v4", "VGG16"):
            winner = min(
                (RUNNER.best_latency(model, device) + (device,)
                 for device in ("Raspberry Pi 3B", "Jetson TX2", "Jetson Nano",
                                "EdgeTPU", "Movidius NCS")
                 if RUNNER.best_latency(model, device) is not None),
                key=lambda entry: entry[1],
            )
            assert winner[2] in ("Jetson TX2", "Jetson Nano", "EdgeTPU"), (model, winner)

    def test_rpi_is_slowest_edge_device(self):
        """Figure 2: the RPi bars are orders of magnitude above the rest."""
        for model in ("ResNet-18", "ResNet-50", "Inception-v4"):
            rpi = RUNNER.best_latency(model, "Raspberry Pi 3B")[1]
            for device in ("Jetson TX2", "Jetson Nano", "Movidius NCS"):
                assert rpi > 4 * RUNNER.best_latency(model, device)[1], (model, device)

    def test_movidius_uneven_across_models(self):
        """Figure 2: against the Jetson TX2 baseline, Movidius is within a
        small factor for MobileNet-v2 (paper: 51 vs 40 ms) but several times
        off for Inception-v4 (paper: 633 vs 106 ms)."""
        def gap_vs_tx2(model):
            movidius = RUNNER.best_latency(model, "Movidius NCS")[1]
            tx2 = RUNNER.best_latency(model, "Jetson TX2")[1]
            return movidius / tx2

        assert gap_vs_tx2("Inception-v4") > 2 * gap_vs_tx2("MobileNet-v2")


class TestSectionVIB:
    """Framework analysis."""

    def test_tensorflow_fastest_on_rpi_among_general_frameworks(self):
        """'The results on RPi show that TensorFlow is the fastest among the
        frameworks' (general-purpose ones; TFLite is treated separately)."""
        for model in ("ResNet-18", "ResNet-50", "MobileNet-v2"):
            tf = latency_s(model, "Raspberry Pi 3B", "TensorFlow")
            for other in ("PyTorch", "Caffe"):
                assert tf < latency_s(model, "Raspberry Pi 3B", other), (model, other)

    def test_pytorch_faster_than_tensorflow_on_gpu(self):
        """'On our GPU platform, Jetson TX2, PyTorch performs faster than
        TensorFlow' — and the same inversion holds on the HPC GPU (Fig. 6)."""
        for device in ("Jetson TX2", "GTX Titan X"):
            for model in ("ResNet-18", "ResNet-50", "VGG16"):
                pt = latency_s(model, device, "PyTorch")
                tf = latency_s(model, device, "TensorFlow")
                assert pt < tf, (device, model)

    def test_caffe_beats_tensorflow_on_tx2_except_mobilenet(self):
        """'The performance of Caffe is always better than that of
        TensorFlow, except for MobileNet-v2' (Figure 4)."""
        for model in ("ResNet-50", "ResNet-101", "Inception-v4", "AlexNet", "VGG16"):
            caffe = latency_s(model, "Jetson TX2", "Caffe")
            tf = latency_s(model, "Jetson TX2", "TensorFlow")
            assert caffe < tf, model
        assert (latency_s("MobileNet-v2", "Jetson TX2", "Caffe")
                > latency_s("MobileNet-v2", "Jetson TX2", "TensorFlow"))

    def test_tensorrt_speedup_band_on_nano(self):
        """Figure 7: 'an average of 4.1x speedup using TensorRT on Jetson
        Nano compared to PyTorch'."""
        table = run_experiment("fig07")
        speedups = table.column("speedup")
        average = sum(speedups) / len(speedups)
        assert 3.0 < average < 8.0
        assert all(s > 1.5 for s in speedups)

    def test_memory_heavy_models_gain_least_from_tensorrt(self):
        """'Models with large memory footprints (AlexNet and VGG16) ...
        achieve smaller speedups compared to other models.'"""
        table = run_experiment("fig07")
        alexnet = table.row("AlexNet")["speedup"]
        others = [row["speedup"] for row in table
                  if row.label not in ("AlexNet", "VGG16")]
        assert alexnet < min(others)

    def test_tflite_speedup_bands_on_rpi(self):
        """Figure 8: TFLite beats TensorFlow (paper: 1.58x average) and
        PyTorch (paper: 4.53x average) on the RPi."""
        table = run_experiment("fig08")
        tf_speedups = table.column("speedup_vs_tf")
        pt_speedups = table.column("speedup_vs_pt")
        assert all(s > 1.0 for s in tf_speedups)
        assert 1.1 < sum(tf_speedups) / len(tf_speedups) < 2.5
        assert 3.0 < sum(pt_speedups) / len(pt_speedups) < 12.0

    def test_tflite_gain_smaller_than_tensorrt_gain(self):
        """'The achieved gain for TFLite is smaller than that for TensorRT
        since TensorFlow already does several optimizations.'"""
        fig7 = run_experiment("fig07").column("speedup")
        fig8 = run_experiment("fig08").column("speedup_vs_tf")
        assert sum(fig8) / len(fig8) < sum(fig7) / len(fig7)


class TestSectionVIB3:
    """Figure 5: software stacks."""

    def test_pytorch_rpi_dominated_by_compute(self, session_factory):
        """'PyTorch spends 96.15% on compute-related functions' on RPi."""
        from repro.profiling import profile_stack

        session = session_factory("ResNet-18", "Raspberry Pi 3B", "PyTorch")
        fractions = profile_stack(session, 30).fractions()
        compute = sum(fractions.get(b, 0) for b in
                      ("conv2d", "batch_norm", "linear", "activation", "forward"))
        assert compute > 0.85

    def test_tensorflow_rpi_dominated_by_graph_setup(self, session_factory):
        """'The graph construction time in TensorFlow (base_layer) accounts
        for 38.22% [TX2] / 50.7% [RPi] of the total time.'"""
        from repro.profiling import profile_stack

        session = session_factory("ResNet-18", "Raspberry Pi 3B", "TensorFlow")
        fractions = profile_stack(session, 30).fractions()
        assert 0.3 < fractions["base_layer"] < 0.7

    def test_gpu_shifts_pytorch_time_to_staging(self, session_factory):
        """'Adding a GPU ... PyTorch and TensorFlow spend a notable portion
        of the total time on computation graph setup' (Fig. 5c/d)."""
        from repro.profiling import profile_stack

        rpi = profile_stack(session_factory("ResNet-18", "Raspberry Pi 3B", "PyTorch"), 30)
        tx2 = profile_stack(session_factory("ResNet-18", "Jetson TX2", "PyTorch"), 1000)
        assert tx2.fraction("_C._TensorBase.to()") > 0.25
        assert rpi.fraction("conv2d") > tx2.fraction("conv2d")


class TestSectionVIC:
    """Edge vs HPC (Figures 9, 10)."""

    def test_geomean_speedup_near_three(self):
        """'The average speedup over Jetson TX2 on all benchmarks is only 3x.'"""
        speedups = []
        for model in FIG9_MODELS:
            tx2 = latency_s(model, "Jetson TX2", "PyTorch")
            for platform in ("Xeon E5-2696 v4", "GTX Titan X", "Titan Xp", "RTX 2080"):
                speedups.append(tx2 / latency_s(model, platform, "PyTorch"))
        assert 2.0 < geometric_mean(speedups) < 5.0

    def test_xeon_loses_on_compute_bound_models(self):
        """'On several benchmarks, the Xeon CPU performance is lower than
        that of all platforms' — the compute-bound ResNets."""
        for model in ("ResNet-18", "ResNet-50", "ResNet-101", "MobileNet-v2"):
            xeon = latency_s(model, "Xeon E5-2696 v4", "PyTorch")
            assert xeon > latency_s(model, "Jetson TX2", "PyTorch"), model
            assert xeon > latency_s(model, "GTX Titan X", "PyTorch"), model

    def test_xeon_competitive_on_memory_bound_vgg(self):
        """'Only for memory-bounded benchmarks (e.g., VGG16 and VGG19) does
        Xeon CPU perform similarly to TX2.'"""
        for model in ("VGG16", "VGG19"):
            xeon = latency_s(model, "Xeon E5-2696 v4", "PyTorch")
            tx2 = latency_s(model, "Jetson TX2", "PyTorch")
            assert 0.3 < xeon / tx2 < 1.3, model

    def test_memory_heavy_models_gain_most_on_hpc_gpus(self):
        """'Benchmarks with large memory footprint such as VGG models and
        C3D generally achieve higher speedups ... ResNet models benefit
        less from HPC GPUs.'"""
        def speedup(model):
            return (latency_s(model, "Jetson TX2", "PyTorch")
                    / latency_s(model, "RTX 2080", "PyTorch"))

        vgg = min(speedup("VGG16"), speedup("VGG19"), speedup("C3D"))
        resnet = max(speedup("ResNet-18"), speedup("ResNet-50"), speedup("ResNet-101"))
        assert vgg > resnet


class TestSectionVID:
    """Figure 13: virtualization."""

    def test_docker_overhead_negligible(self):
        """'The overhead is almost negligible, within 5%, in all cases.'"""
        table = run_experiment("fig13")
        assert all(0 <= row["slowdown"] <= 0.05 + 1e-9 for row in table)


class TestSectionVIE:
    """Figures 11, 12: energy."""

    def test_rpi_worst_energy_per_inference(self):
        """'RPi has the highest energy per inference value.'"""
        table = run_experiment("fig11")
        for model in ("ResNet-18", "ResNet-50", "Inception-v4"):
            rpi = table.row(f"Raspberry Pi 3B / {model}")["energy_mj"]
            for device in ("Jetson TX2", "Jetson Nano", "Movidius NCS"):
                other = table.row(f"{device} / {model}")["energy_mj"]
                assert rpi > other, (model, device)

    def test_tx2_saves_energy_vs_gtx(self):
        """'This is an average of a 5x energy savings with respect to GTX
        Titan X' for Jetson TX2."""
        table = run_experiment("fig11")
        ratios = []
        for model in ("ResNet-18", "ResNet-50", "Inception-v4"):
            gtx = table.row(f"GTX Titan X / {model}")["energy_mj"]
            tx2 = table.row(f"Jetson TX2 / {model}")["energy_mj"]
            ratios.append(gtx / tx2)
        assert 2.0 < sum(ratios) / len(ratios) < 12.0

    def test_edgetpu_millijoule_class(self):
        """'Edge-specific devices lower the energy consumption to as low as
        11 mJ per inference (MobileNet-v2 on EdgeTPU).'"""
        table = run_experiment("fig11")
        assert table.row("EdgeTPU / MobileNet-v2")["energy_mj"] < 20

    def test_fig12_pareto_positions(self):
        """Figure 12: Movidius has the lowest active power; EdgeTPU the
        lowest inference time (among its runnable models)."""
        table = run_experiment("fig12")
        by_device: dict[str, list] = {}
        for row in table:
            device = row.label.split(" / ")[0]
            by_device.setdefault(device, []).append(row)
        min_power_device = min(by_device, key=lambda d: min(r["power_w"] for r in by_device[d]))
        assert min_power_device == "Movidius NCS"
        fastest_device = min(by_device, key=lambda d: min(r["latency_ms"] for r in by_device[d]))
        assert fastest_device == "EdgeTPU"


class TestSectionVIF:
    """Figure 14: temperature."""

    def test_rpi_thermal_shutdown(self):
        table = run_experiment("fig14")
        assert "shutdown" in table.row("Raspberry Pi 3B")["events"]

    def test_fans_control_jetson_temperatures(self):
        table = run_experiment("fig14")
        for device in ("Jetson TX2", "Jetson Nano"):
            assert "fan_on" in table.row(device)["events"]

    def test_movidius_lowest_temperature_variation(self):
        """'The temperature variation of Movidius is the lowest even though
        it is not equipped with a fan.'"""
        table = run_experiment("fig14")
        variations = {
            row.label: row["steady_surface_c"] - row["idle_surface_c"]
            for row in table
        }
        assert variations["Movidius NCS"] == min(variations.values())

    def test_tx2_cooler_than_nano_despite_more_power(self):
        """'The power usage of Jetson TX2 is higher than that of Jetson
        Nano, while their temperatures are opposite.'"""
        table = run_experiment("fig14")
        assert (table.row("Jetson TX2")["steady_surface_c"]
                < table.row("Jetson Nano")["steady_surface_c"])
