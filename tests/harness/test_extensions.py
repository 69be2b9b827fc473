"""Extension experiment generators."""

import pytest

from repro.harness import run_experiment


class TestExtBatch:
    @pytest.fixture(scope="class")
    def table(self):
        return run_experiment("ext-batch")

    def test_crossover_noted(self, table):
        assert any("crosses below" in note for note in table.notes)

    def test_hpc_gap_grows(self, table):
        tx2 = table.row("Jetson TX2")
        rtx = table.row("RTX 2080")
        assert tx2["batch 1"] / rtx["batch 1"] < tx2["batch 64"] / rtx["batch 64"]


class TestExtPruning:
    def test_exploiters_vs_flat(self):
        table = run_experiment("ext-pruning")
        tf = table.row("TensorFlow")
        pt = table.row("PyTorch")
        assert tf["90% sparse"] < 0.6 * tf["0% sparse"]
        assert pt["90% sparse"] == pytest.approx(pt["0% sparse"], rel=1e-6)


class TestExtDtype:
    def test_three_dtypes(self):
        table = run_experiment("ext-dtype")
        assert table.labels() == ["fp32", "fp16", "int8"]


class TestExtRnn:
    def test_rnns_underfill_every_platform(self):
        table = run_experiment("ext-rnn")
        fractions = [row["peak_fraction"] for row in table
                     if row["peak_fraction"] is not None]
        assert fractions
        assert all(f < 0.1 for f in fractions)


class TestExtSustained:
    @pytest.fixture(scope="class")
    def table(self):
        return run_experiment("ext-sustained")

    def test_rpi_shutdown_vs_dvfs(self, table):
        assert table.row("Raspberry Pi 3B")["outcome"] == "shutdown"
        dvfs = table.row("Raspberry Pi 3B (DVFS)")
        assert dvfs["outcome"] == "throttled"
        assert dvfs["sustained_fps"] > 0

    def test_fan_devices_stable(self, table):
        for device in ("Jetson TX2", "Jetson Nano", "EdgeTPU", "Movidius NCS"):
            assert table.row(device)["outcome"] == "stable"
            assert table.row(device)["slowdown"] == pytest.approx(1.0)


class TestExtSplit:
    @pytest.fixture(scope="class")
    def table(self):
        return run_experiment("ext-split")

    def test_all_three_decisions_occur(self, table):
        decisions = set(table.column("decision"))
        assert decisions == {"offload all", "stay local", "split"}

    def test_best_never_exceeds_endpoints(self, table):
        for row in table:
            assert row["best_ms"] <= row["all_edge_ms"] + 1e-9
            assert row["best_ms"] <= row["all_remote_ms"] + 1e-9

    def test_slow_edge_always_offloads(self, table):
        for row in table:
            if row.label.startswith("VGG16 @ Raspberry"):
                assert row["decision"] == "offload all"


class TestExtPipeline:
    @pytest.fixture(scope="class")
    def table(self):
        return run_experiment("ext-pipeline")

    def test_throughput_scales_then_saturates(self, table):
        fps = table.column("throughput_fps")
        assert fps[1] > fps[0]
        assert fps[-1] == pytest.approx(fps[3])  # saturated

    def test_end_to_end_latency_grows_with_stages(self, table):
        latency = table.column("end_to_end_ms")
        assert latency == sorted(latency)


class TestExtServing:
    @pytest.fixture(scope="class")
    def table(self):
        return run_experiment("ext-serving")

    def test_rpi_saturates(self, table):
        row = table.row("Raspberry Pi 3B")
        assert row["utilization"] == pytest.approx(1.0, abs=0.01)
        assert not row["meets_150ms"]

    def test_fast_devices_meet_the_deadline(self, table):
        for device in ("Jetson TX2", "Jetson Nano", "EdgeTPU", "Movidius NCS"):
            assert table.row(device)["meets_150ms"], device

    def test_underloaded_p99_near_service_time(self, table):
        row = table.row("EdgeTPU")
        assert row["p99_ms"] == pytest.approx(row["service_ms"], rel=0.1)

    def test_matches_the_replaced_loop(self, table):
        """The Lindley kernel serves the same jittered stream as the
        per-request loop, up to the closed form's summation order."""
        from repro.runtime import default_runner
        from repro.workloads import PeriodicArrivals
        from tests.workloads.reference import simulate_serving

        arrivals = PeriodicArrivals(10.0).generate(60.0)
        for row in table:
            _, session = default_runner().first_session(
                "MobileNet-v2", row.label, default=("PyTorch", "TensorFlow"))
            loop = simulate_serving(arrivals, session.latency_s,
                                    service_jitter_fraction=0.02, seed=9)
            assert row["utilization"] == pytest.approx(loop.utilization,
                                                       rel=1e-12, abs=0.0)
            assert row["p99_ms"] == pytest.approx(loop.p99_sojourn_s * 1e3,
                                                  rel=1e-12, abs=0.0)
            assert row["meets_150ms"] == loop.meets_deadline(0.150)


class TestExtPowerModes:
    @pytest.fixture(scope="class")
    def table(self):
        return run_experiment("ext-power-modes")

    def test_budget_modes_slower_lower_power(self, table):
        maxn = table.row("Jetson TX2 @ Max-N")
        maxq = table.row("Jetson TX2 @ Max-Q")
        assert maxq["latency_ms"] > maxn["latency_ms"]
        assert maxq["power_w"] < maxn["power_w"]

    def test_tx2_maxq_wins_on_energy(self, table):
        assert (table.row("Jetson TX2 @ Max-Q")["energy_mj"]
                < table.row("Jetson TX2 @ Max-N")["energy_mj"])


class TestExtBatchServing:
    @pytest.fixture(scope="class")
    def table(self):
        return run_experiment("ext-batch-serving")

    def test_batch1_saturates_past_capacity(self, table):
        row = table.row("200 req/s")
        assert row["util_batch1"] > 0.99
        assert row["p99_ms_batch1"] > 1000  # queue blowout

    def test_batching_holds_the_tail(self, table):
        for row in table:
            assert row["p99_ms_batch32"] < 100, row.label

    def test_batch_size_grows_with_load(self, table):
        batches = table.column("mean_batch")
        assert batches == sorted(batches)

    def test_matches_the_replaced_loop(self, table):
        """The one-replica pools serve like the greedy batching loop: bit
        for bit at batch 32, and up to the batch-1 Lindley scan's
        summation order at batch 1."""
        from repro.engine.cache import cached_graph
        from repro.frameworks import load_framework
        from repro.hardware import load_device
        from repro.workloads import PoissonArrivals
        from tests.workloads.reference import (
            batched_latency_fn,
            simulate_batch_serving,
        )

        batch_time = batched_latency_fn(load_framework("PyTorch").deploy(
            cached_graph("ResNet-50"), load_device("RTX 2080")), max_batch=32)
        for row in table:
            arrivals = PoissonArrivals(row["rate_rps"], seed=21).generate(20.0)
            single = simulate_batch_serving(arrivals, batch_time, 1)
            batched = simulate_batch_serving(arrivals, batch_time, 32)
            assert row["p99_ms_batch32"] == batched.p99_sojourn_s * 1e3
            assert row["mean_batch"] == batched.mean_batch_size
            assert row["util_batch32"] == batched.utilization
            assert row["p99_ms_batch1"] == pytest.approx(
                single.p99_sojourn_s * 1e3, rel=1e-12, abs=0.0)
            assert row["util_batch1"] == pytest.approx(
                single.utilization, rel=1e-12, abs=0.0)


class TestExtPareto:
    def test_extremes_on_frontier(self):
        table = run_experiment("ext-pareto")
        devices = {row["device"] for row in table}
        # Figure 12's extremes: EdgeTPU (fastest) and Movidius (most frugal).
        assert "EdgeTPU" in devices
        assert "Movidius NCS" in devices
        # Frontier latencies ascend while powers descend.
        latencies = table.column("latency_ms")
        powers = table.column("power_w")
        assert latencies == sorted(latencies)
        assert powers == sorted(powers, reverse=True)
