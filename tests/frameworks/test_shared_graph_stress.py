"""Thread-stress harness for shared prepared graphs.

Every deployment of one source graph through one transform recipe shares
one prepared graph (``Graph.transformed``), memoized on the source graph
itself.  Sixteen threads deploy the cached zoo graph through frameworks
that share a recipe, each on its own device, all released at once: every
thread must come back with the same prepared graph, however the builds
race (the first one stored wins through ``dict.setdefault``).

Marked ``stress`` so tier-1 skips it (see ``pyproject.toml``); CI runs it
in the ``pytest -m stress`` job.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.cache import cached_graph, clear_caches
from repro.frameworks import load_framework
from repro.graphs.graph import Graph
from repro.hardware import load_device

pytestmark = pytest.mark.stress

THREADS = 16
ROUNDS = 25

#: (framework, device) pairs that prepare ResNet-18 through one recipe.
SHARED_RECIPES = {
    "fuse+fp16": [("TensorRT", "Jetson TX2"), ("TensorRT", "Jetson Nano"),
                  ("TensorRT", "GTX Titan X"), ("NCSDK", "Movidius NCS")],
    "fuse+int8": [("TensorRT", "Titan Xp"), ("TensorRT", "RTX 2080"),
                  ("TVM VTA", "PYNQ-Z1")],
    "empty": [("PyTorch", "Jetson TX2"), ("Caffe", "Jetson Nano"),
              ("DarkNet", "GTX Titan X"), ("TensorFlow", "Raspberry Pi 3B")],
}


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(autouse=True)
def _frequent_thread_switches():
    """Switch threads every microsecond so the builds really interleave."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


@pytest.mark.parametrize("recipe", sorted(SHARED_RECIPES))
def test_every_thread_gets_the_same_prepared_graph(recipe):
    pairs = [(load_framework(framework), load_device(device))
             for framework, device in SHARED_RECIPES[recipe]]
    for _ in range(ROUNDS):
        clear_caches()  # a fresh zoo graph, with nothing memoized yet
        graph = cached_graph("ResNet-18")
        start = threading.Barrier(THREADS)

        def worker(tid: int) -> Graph:
            framework, device = pairs[tid % len(pairs)]
            start.wait()
            return framework.deploy(cached_graph("ResNet-18"), device).graph

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            prepared = list(pool.map(worker, range(THREADS)))
        assert all(p is prepared[0] for p in prepared)
        if recipe == "empty":
            assert prepared[0] is graph
        else:
            assert prepared[0] is not graph
            assert list(graph._recipes.values()) == [prepared[0]]
