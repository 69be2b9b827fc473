"""Micro-benchmarks of the library's own hot paths.

Not a paper artifact: these keep the substrate fast enough that the whole
paper regenerates in seconds (graph construction, engine planning, the
calibration fit, serialization, and the pipeline DP).
"""

import numpy as np
import pytest

from repro.distribution import lower_pipeline
from repro.engine import InferenceSession
from repro.frameworks import load_framework
from repro.graphs import Graph
from repro.graphs.serialize import graph_from_dict, graph_to_dict
from repro.hardware import load_device
from repro.models import load_model
from repro.runtime import Scenario, default_runner


@pytest.mark.benchmark(group="library")
def test_build_inception_graph(benchmark):
    graph = benchmark(load_model, "Inception-v4")
    assert graph.total_params > 40e6


@pytest.mark.benchmark(group="library")
def test_deploy_and_plan_resnet50(benchmark):
    framework = load_framework("PyTorch")
    device = load_device("Jetson TX2")
    model = load_model("ResNet-50")

    def deploy_and_plan():
        return InferenceSession(framework.deploy(model, device))

    session = benchmark(deploy_and_plan)
    assert session.latency_s > 0


@pytest.mark.benchmark(group="library")
def test_serialize_round_trip_vgg16(benchmark):
    graph = load_model("VGG16")

    def round_trip():
        return graph_from_dict(graph_to_dict(graph))

    restored = benchmark(round_trip)
    assert restored.total_params == graph.total_params


@pytest.mark.benchmark(group="library")
def test_pipeline_partition_yolov3(benchmark):
    """Lower a 4-device chain: one warm runner session, then the DP."""
    chain = [Scenario("YOLOv3", "Jetson TX2", "PyTorch")] * 4
    deployment = benchmark(lower_pipeline, chain, "ethernet",
                           runner=default_runner())
    assert deployment.num_stages == 4


@pytest.mark.benchmark(group="library")
def test_peak_memory_liveness_inception(benchmark):
    graph = load_model("Inception-v4")

    def fresh_graph():
        # A clone starts without an op table, so every round builds the
        # table and runs the liveness sweep instead of reading its memo.
        return (graph.clone(),), {}

    peak = benchmark.pedantic(Graph.peak_activation_bytes, setup=fresh_graph,
                              rounds=50, iterations=1)
    assert peak == graph.peak_activation_bytes() > 0


@pytest.mark.benchmark(group="library")
def test_serving_simulation_throughput(benchmark):
    from repro.fleet import lindley
    from repro.workloads import PoissonArrivals

    arrivals = PoissonArrivals(200.0, seed=5).generate(120.0)  # ~24k requests
    offsets_s = 0.004 * np.arange(arrivals.size)

    finish_s = benchmark(lindley, arrivals, offsets_s, 0.004, 0.0)
    assert finish_s.shape == arrivals.shape
    assert np.all(np.diff(finish_s) >= 0.0)
    assert np.all(finish_s - arrivals >= 0.004 - 1e-12)


@pytest.mark.benchmark(group="library")
def test_calibration_fit(benchmark):
    from repro.engine.calibration import _fit

    def fit_fresh():
        _fit.cache_clear()
        return _fit("TensorRT", "Jetson Nano")

    scale = benchmark(fit_fresh)
    assert 0 < scale < 100
