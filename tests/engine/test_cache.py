"""The engine memoization layer (graph / deploy / plan caches)."""

from __future__ import annotations

import threading

import pytest

from repro.core.errors import OutOfMemoryError, ReproError
from repro.engine import InferenceSession
from repro.engine.cache import (
    DEPLOY_CACHE,
    GRAPH_CACHE,
    PLAN_CACHE,
    MemoCache,
    cache_stats,
    cached_deploy,
    cached_graph,
    caching_disabled,
    caching_enabled,
    clear_caches,
    plan_key,
    set_caching,
)
from repro.frameworks import load_framework
from repro.hardware import load_device
from repro.models import load_model
from repro.runtime import Scenario


@pytest.fixture(autouse=True)
def fresh_caches():
    """Every test starts and ends with empty caches and caching enabled."""
    clear_caches()
    set_caching(True)
    yield
    clear_caches()
    set_caching(True)


class TestMemoCache:
    def test_builds_once_and_shares(self):
        cache = MemoCache("test")
        built = []

        def build():
            built.append(1)
            return object()

        first = cache.get_or_build("k", build)
        second = cache.get_or_build("k", build)
        assert first is second
        assert built == [1]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_distinct_keys_distinct_values(self):
        cache = MemoCache("test")
        a = cache.get_or_build("a", lambda: object())
        b = cache.get_or_build("b", lambda: object())
        assert a is not b
        assert len(cache) == 2

    def test_repro_error_is_cached_and_reraised(self):
        cache = MemoCache("test")
        calls = []

        def failing():
            calls.append(1)
            raise ReproError("deployment failed")

        with pytest.raises(ReproError):
            cache.get_or_build("k", failing)
        with pytest.raises(ReproError):
            cache.get_or_build("k", failing)
        assert calls == [1]  # the failure itself was memoized
        assert cache.stats.hits == 1

    def test_other_exceptions_propagate_uncached(self):
        cache = MemoCache("test")
        calls = []

        def broken():
            calls.append(1)
            raise RuntimeError("bug, not a deployment outcome")

        for _ in range(2):
            with pytest.raises(RuntimeError):
                cache.get_or_build("k", broken)
        assert calls == [1, 1]
        assert len(cache) == 0

    def test_clear_resets_entries_and_stats(self):
        cache = MemoCache("test")
        cache.get_or_build("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_racing_builders_share_first_result(self):
        cache = MemoCache("test")
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            results.append(cache.get_or_build("k", object))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 1
        assert all(result is results[0] for result in results)


class TestCachedGraph:
    def test_shared_instance_on_hit(self):
        first = cached_graph("ResNet-18")
        second = cached_graph("resnet18")  # canonical-name keyed
        assert first is second
        assert GRAPH_CACHE.stats.hits == 1

    def test_matches_load_model(self):
        cached = cached_graph("ResNet-18")
        fresh = load_model("ResNet-18")
        assert cached.total_params == fresh.total_params
        assert [op.name for op in cached.ops] == [op.name for op in fresh.ops]

    def test_disabled_builds_fresh(self):
        with caching_disabled():
            assert not caching_enabled()
            first = cached_graph("ResNet-18")
            second = cached_graph("ResNet-18")
        assert first is not second
        assert len(GRAPH_CACHE) == 0


class TestCachedDeploy:
    def test_shared_instance_and_key_tag(self):
        first = cached_deploy("ResNet-18", "Jetson TX2", "PyTorch")
        second = cached_deploy("ResNet-18", "Jetson TX2", "PyTorch")
        assert first is second
        assert first.cache_key == Scenario("ResNet-18", "Jetson TX2", "PyTorch").deploy_key
        assert DEPLOY_CACHE.stats.hits == 1

    def test_matches_direct_deploy(self):
        cached = cached_deploy("MobileNet-v2", "Raspberry Pi 3B", "TFLite")
        direct = load_framework("TFLite").deploy(
            load_model("MobileNet-v2"), load_device("Raspberry Pi 3B"))
        assert cached.storage_mode == direct.storage_mode
        assert cached.weight_dtype is direct.weight_dtype
        assert cached.footprint_bytes() == direct.footprint_bytes()

    def test_table5_failure_memoized(self):
        # TensorFlow's static allocator cannot fit VGG16 on the Pi (Table V).
        for _ in range(2):
            with pytest.raises(OutOfMemoryError):
                cached_deploy("VGG16", "Raspberry Pi 3B", "TensorFlow")
        assert DEPLOY_CACHE.stats.misses == 1
        assert DEPLOY_CACHE.stats.hits == 1

    def test_disabled_deploys_fresh_and_untagged(self):
        with caching_disabled():
            deployed = cached_deploy("ResNet-18", "Jetson TX2", "PyTorch")
        assert deployed.cache_key is None
        assert len(DEPLOY_CACHE) == 0


class TestPlanCache:
    def test_sessions_on_cached_deploy_share_plan(self):
        deployed = cached_deploy("ResNet-18", "Jetson TX2", "PyTorch")
        first = InferenceSession(deployed)
        second = InferenceSession(deployed)
        assert first.plan is second.plan
        assert PLAN_CACHE.stats.hits == 1

    def test_ad_hoc_deployments_never_plan_cached(self):
        deployed = load_framework("PyTorch").deploy(
            load_model("ResNet-18"), load_device("Jetson TX2"))
        assert plan_key(deployed, None, 1.0) is None
        first = InferenceSession(deployed)
        second = InferenceSession(deployed)
        assert first.plan is not second.plan
        assert len(PLAN_CACHE) == 0

    def test_config_changes_miss(self):
        from repro.engine import EngineConfig

        deployed = cached_deploy("ResNet-18", "Jetson TX2", "PyTorch")
        InferenceSession(deployed)
        InferenceSession(deployed, config=EngineConfig(batch_size=4))
        assert len(PLAN_CACHE) == 2
        assert PLAN_CACHE.stats.hits == 0

    def test_cached_latency_identical_to_uncached(self):
        cached_session = InferenceSession(
            cached_deploy("ResNet-18", "Jetson TX2", "PyTorch"))
        with caching_disabled():
            fresh_session = InferenceSession(
                cached_deploy("ResNet-18", "Jetson TX2", "PyTorch"))
        assert cached_session.latency_s == fresh_session.latency_s
        assert cached_session.plan.compute_s == fresh_session.plan.compute_s
        assert cached_session.plan.memory_s == fresh_session.plan.memory_s


class TestStats:
    def test_cache_stats_shape(self):
        cached_deploy("ResNet-18", "Jetson TX2", "PyTorch")
        stats = cache_stats()
        assert set(stats) == {"graph", "deploy", "plan", "record", "payload"}
        for snapshot in stats.values():
            assert set(snapshot) == {"entries", "hits", "misses", "hit_rate"}
        assert stats["deploy"]["entries"] == 1
        assert stats["deploy"]["misses"] == 1

    def test_clear_caches_empties_everything(self):
        InferenceSession(cached_deploy("ResNet-18", "Jetson TX2", "PyTorch"))
        clear_caches()
        assert all(snapshot["entries"] == 0 for snapshot in cache_stats().values())
