"""Thread-stress harness for the memoization layer.

The runtime counterpart of the RACE rules in `repro check effects`: the
static pass proves nothing *reachable from the parallel roots* writes
shared state outside a ``MemoCache`` lock; this suite hammers the five
process-wide caches from a 16-thread pool and asserts the lock actually
delivers the contract — no lost updates (every racer converges on one
shared object per key, successes and cached failures alike), and
``stats``/``snapshot`` counters that stay exactly consistent under
interleaved ``get_or_build`` / ``cached_value`` / ``store`` /
``invalidate`` / ``snapshot`` traffic.

Marked ``stress`` so tier-1 skips it (see ``pyproject.toml``); CI runs it
in a dedicated ``pytest -m stress`` job on every PR.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.errors import ReproError
from repro.engine.cache import (
    DEPLOY_CACHE,
    GRAPH_CACHE,
    PAYLOAD_CACHE,
    PLAN_CACHE,
    RECORD_CACHE,
    MemoCache,
    clear_caches,
)

pytestmark = pytest.mark.stress

THREADS = 16
KEYS = 23
ROUNDS = 25

ALL_CACHES = (GRAPH_CACHE, DEPLOY_CACHE, PLAN_CACHE, RECORD_CACHE,
              PAYLOAD_CACHE)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """The five caches are process-wide; leave them as we found them."""
    clear_caches()
    yield
    clear_caches()


def _run_threads(worker) -> list:
    """Run ``worker(thread_id)`` on THREADS threads; re-raise any failure."""
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        return [f.result() for f in
                [pool.submit(worker, tid) for tid in range(THREADS)]]


class _BuildCounter:
    """Counts how many times builders actually ran (lock of its own, so the
    test never leans on the lock under test)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def fresh_object(self):
        with self._lock:
            self.count += 1
        return object()


def test_get_or_build_converges_on_one_object_per_key():
    """All 16 threads must observe the identical instance for each key of
    each cache, and the counters must account for every single lookup."""
    builds = {cache.name: _BuildCounter() for cache in ALL_CACHES}

    def worker(tid: int):
        results = {}
        for round_index in range(ROUNDS):
            for key in range(KEYS):
                for cache in ALL_CACHES:
                    counter = builds[cache.name]
                    value = cache.get_or_build(
                        ("stress", key), counter.fresh_object)
                    results.setdefault((cache.name, key), set()).add(id(value))
        return results

    per_thread = _run_threads(worker)
    merged: dict[tuple[str, int], set[int]] = {}
    for results in per_thread:
        for slot, ids in results.items():
            merged.setdefault(slot, set()).update(ids)
    # no lost updates: one shared object per (cache, key), ever
    assert all(len(ids) == 1 for ids in merged.values())
    for cache in ALL_CACHES:
        snap = cache.snapshot()
        lookups = THREADS * ROUNDS * KEYS
        assert snap["hits"] + snap["misses"] == lookups
        assert snap["entries"] == KEYS
        # every miss ran a builder; racing builders may double-build but
        # each counted exactly one miss apiece
        assert snap["misses"] == builds[cache.name].count
        assert snap["misses"] >= KEYS
        assert cache.stats.lookups == lookups


def test_first_build_wins_when_every_thread_misses_one_key():
    """The builder holds each thread at a barrier until all 16 are
    building, so all of them miss the key and each stores its own value:
    only the first stored value may come back, to every caller."""
    cache = MemoCache("race")
    barrier = threading.Barrier(THREADS, timeout=60)

    def build():
        barrier.wait()
        return object()

    results = _run_threads(lambda _tid: cache.get_or_build("key", build))
    assert cache.stats.misses == THREADS
    assert len({id(value) for value in results}) == 1
    assert cache.get_or_build("key", object) is results[0]


def test_interleaved_get_invalidate_snapshot_stays_consistent():
    """Mixed traffic: builds, invalidations and snapshots race freely; the
    counters must never tear (hits+misses == counted lookups exactly) and
    every snapshot observed mid-flight must be internally consistent."""
    counted = {cache.name: 0 for cache in ALL_CACHES}
    count_lock = threading.Lock()

    def worker(tid: int):
        local_counts = dict.fromkeys(counted, 0)
        for step in range(ROUNDS * KEYS):
            key = ("mix", step % KEYS)
            cache = ALL_CACHES[(tid + step) % len(ALL_CACHES)]
            op = (tid + step) % 5
            if op in (0, 1):                      # counted lookup + build
                cache.get_or_build(key, object)
                local_counts[cache.name] += 1
            elif op == 2:                         # counted two-phase lookup
                found, value = cache.cached_value(key)
                if not found:
                    cache.store(key, object())
                local_counts[cache.name] += 1
            elif op == 3:                         # uncounted removal
                cache.invalidate(key)
            else:                                 # uncounted observation
                snap = cache.snapshot()
                assert snap["entries"] >= 0
                assert snap["hits"] >= 0 and snap["misses"] >= 0
                assert 0.0 <= snap["hit_rate"] <= 1.0
                assert cache.contains(key) in (True, False)
                assert len(cache) >= 0
        with count_lock:
            for name, n in local_counts.items():
                counted[name] += n

    _run_threads(worker)
    for cache in ALL_CACHES:
        snap = cache.snapshot()
        # invalidate/snapshot/contains never count; every get_or_build and
        # cached_value counted exactly once — no lost counter updates
        assert snap["hits"] + snap["misses"] == counted[cache.name]
        assert 0 <= snap["entries"] <= KEYS


def test_store_first_wins_across_threads():
    """Racing stores must converge: every thread gets the same shared entry
    back, whichever store landed first."""
    cache = PLAN_CACHE

    def worker(tid: int):
        return [id(cache.store(("race", key), object())) for key in range(KEYS)]

    per_thread = _run_threads(worker)
    for key in range(KEYS):
        assert len({ids[key] for ids in per_thread}) == 1
    assert len(cache) == KEYS


def test_cached_failures_are_shared_and_stable():
    """A builder that raises ReproError caches the *outcome*: all racers and
    all later lookups re-raise the one stored error instance."""
    cache = DEPLOY_CACHE
    barrier = threading.Barrier(THREADS)

    def failing_builder():
        raise ReproError("stress: deliberate deployment failure")

    def worker(tid: int):
        barrier.wait()
        seen = []
        for _ in range(ROUNDS):
            try:
                cache.get_or_build(("fail",), failing_builder)
            except ReproError as error:
                seen.append(id(error))
        return seen

    per_thread = _run_threads(worker)
    flattened = [eid for seen in per_thread for eid in seen]
    assert len(flattened) == THREADS * ROUNDS
    # first failure wins; every thread re-raises that same instance
    assert len(set(flattened)) == 1
    snap = cache.snapshot()
    assert snap["entries"] == 1
    assert snap["hits"] + snap["misses"] == THREADS * ROUNDS


def test_invalidate_then_rebuild_converges():
    """Invalidation racing get_or_build may rebuild, but once traffic stops
    one more round of lookups must land on a single shared object again."""
    cache = RECORD_CACHE

    def churn(tid: int):
        for step in range(ROUNDS * KEYS):
            key = ("churn", step % KEYS)
            if (tid + step) % 3 == 0:
                cache.invalidate(key)
            else:
                cache.get_or_build(key, object)

    _run_threads(churn)

    def settle(tid: int):
        return [id(cache.get_or_build(("churn", key), object))
                for key in range(KEYS)]

    per_thread = _run_threads(settle)
    for key in range(KEYS):
        assert len({ids[key] for ids in per_thread}) == 1
    assert isinstance(cache, MemoCache)
