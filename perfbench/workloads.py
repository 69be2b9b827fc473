"""The four benchmark workloads.

Every workload is a closed loop with one client: the next iteration starts
when the previous one returns.  Each iteration starts from empty engine
caches, like every ``python -m repro`` invocation, and runs in this one
serial process.  Workloads call the program through module attributes at
call time, so the traced run's wrappers (``spans.Tracer.install``) see
every call.

* ``suite-cold`` -- one cold full-suite export per iteration; checked
  against ``tests/data/baseline_snapshot.json`` at zero tolerance.
* ``fleet-1m`` -- one fleet simulation of a seeded Poisson stream per
  iteration (pools priced once, in set-up); checked for request
  conservation and byte-identical reports.
* ``place-zoo`` -- one cold placement search per zoo model per iteration,
  in seed-shuffled order; every frontier must be non-empty and identical
  across iterations.
* ``check-all`` -- one run of every static check pass per iteration; it
  must report zero findings.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import spans

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "tests" / "data" / "baseline_snapshot.json"


@dataclass(frozen=True)
class Size:
    """How much work one iteration does (``None``: everything the repo has)."""

    experiments: tuple[str, ...] | None = None
    requests: int = 1_000_000
    models: int | None = None
    passes: tuple[str, ...] | None = None


FULL = Size()
TOY = Size(experiments=("table6", "fig13", "fig08"), requests=10_000,
           models=2, passes=("tables",))
SIZES = {"full": FULL, "toy": TOY}


@dataclass
class Op:
    """One user-visible operation: its host time and checked output."""

    key: str
    seconds: float
    digest: str
    failures: list[str] = field(default_factory=list)


def digest(output: Any) -> str:
    """A fixed-size fingerprint of an output, so that checking identity
    across iterations adds no memory per iteration (``peak_rss_mb``)."""
    text = output if isinstance(output, str) else json.dumps(output, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Iteration:
    seconds: float
    ops: list[Op]
    counts: dict[str, float]


#: Exact counts every workload reports (zero where its layers do not run).
#: A change that only makes the program faster must leave them identical.
EXACT_COUNTS = (
    "engine.compile.cells",
    "engine.compile.unique_plans",
    "engine.compile.dedup_ratio",
    "engine.compile.ops_lowered",
    "engine.compile.macs_lowered",
    "engine.compile.bytes_lowered",
    "engine.cache.graph.hit_rate",
    "engine.cache.deploy.hit_rate",
    "engine.cache.plan.hit_rate",
    "engine.cache.record.hit_rate",
    "engine.cache.payload.hit_rate",
    "placement.candidates",
    "placement.frontier_points",
    "check.findings",
    "fleet.sim.completed",
    "fleet.sim.dropped",
    "fleet.sim.rejected",
    "fleet.sim.batches",
    "fleet.sim.p99_sojourn_s",
    "fleet.sim.energy_j",
    "fleet.sim.shutdown_events",
    "fleet.sim.share_batched",
    "fleet.sim.share_fifo",
    "fleet.sim.share_pipeline",
)


def warm_calibration() -> None:
    """Fit every calibration anchor, the one per-process memo that
    ``clear_caches`` keeps, so the first timed iteration does the same
    work as the rest."""
    from repro.engine.calibration import ANCHORS, efficiency_scale

    for framework, device in ANCHORS:
        efficiency_scale(framework, device)


def reset_program_state() -> None:
    """Empty the engine caches and compile counters; collect garbage."""
    from repro.engine import cache, compile as sweep_compile

    cache.clear_caches()
    sweep_compile.reset_compile_stats()
    gc.collect()


def engine_counts() -> dict[str, float]:
    """Compiler and cache counters of the iteration just run."""
    from repro.engine import cache, compile as sweep_compile

    compiled = sweep_compile.compile_stats()
    counts = {f"engine.compile.{key}": float(compiled[key])
              for key in ("cells", "unique_plans", "dedup_ratio", "ops_lowered",
                          "macs_lowered", "bytes_lowered")}
    for name, stats in cache.cache_stats().items():
        counts[f"engine.cache.{name}.hit_rate"] = float(stats["hit_rate"])
    return counts


class Workload:
    """Set-up once, then closed-loop iterations."""

    name = ""
    headline_name = ""

    def __init__(self, seed: int, size: Size = FULL):
        self.seed = seed
        self.size = size

    def setup(self, tracer: Any) -> None:
        """Everything between a fresh interpreter and the first iteration."""
        warm_calibration()

    def iteration(self, tracer: Any) -> Iteration:
        raise NotImplementedError

    def headline(self, iteration_s: float, op_p50_s: float, iterations: int,
                 ops: int) -> dict[str, tuple[float, str, int]]:
        """The workload's end-to-end metrics under their user-facing names:
        (value, unit, sample count) from the best iteration and the median
        operation's best time."""
        return {self.headline_name: (iteration_s, "s", iterations)}

    def _counts(self, **known: float) -> dict[str, float]:
        counts = dict.fromkeys(EXACT_COUNTS, 0.0)
        counts.update(engine_counts())
        counts.update(known)
        return counts


class SuiteCold(Workload):
    name = "suite-cold"
    headline_name = "suite_s"

    def __init__(self, seed: int, size: Size = FULL,
                 baseline: dict[str, Any] | None = None):
        super().__init__(seed, size)
        self.baseline = baseline

    def setup(self, tracer: Any) -> None:
        from repro.harness.registry import list_experiments
        from repro.harness.suite import load_results

        super().setup(tracer)
        self.ids = list(self.size.experiments or list_experiments())
        baseline = self.baseline or load_results(BASELINE)
        self.expected = {
            "snapshot_version": baseline["snapshot_version"],
            "experiments": {i: baseline["experiments"][i] for i in self.ids},
        }

    def iteration(self, tracer: Any) -> Iteration:
        from repro.harness import suite

        reset_program_state()
        start = time.perf_counter()
        with tracer.span(spans.ROOT):
            snapshot = suite.export_results(self.ids, jobs=1)
        seconds = time.perf_counter() - start
        differences = suite.compare_results(self.expected, snapshot,
                                            rel_tolerance=0.0)
        failures = [difference.describe() for difference in differences[:3]]
        if len(differences) > 3:
            failures.append(f"... {len(differences)} cells differ in all")
        op = Op("export", seconds, digest(snapshot), failures)
        return Iteration(seconds, [op], self._counts())


#: (pool name, device, framework, replicas, max_batch, traffic class)
FLEET_POOLS = (
    ("nano-trt", "Jetson Nano", "TensorRT", 8, 8, "batched"),
    ("tx2-torch", "Jetson TX2", "PyTorch", 4, 4, "batched"),
    ("nano-torch", "Jetson Nano", "PyTorch", 6, 1, "fifo"),
    ("pi-tflite", "Raspberry Pi 3B", "TFLite", 2, 1, "fifo"),
)
FLEET_PIPELINE = ("nano-pipe", "Jetson Nano", "TensorRT", 4, 2, "lan")
FLEET_MODEL = "ResNet-18"
FLEET_RATE_RPS = 945.0
FLEET_EPOCHS = 1024


class Fleet(Workload):
    name = "fleet-1m"

    def setup(self, tracer: Any) -> None:
        from repro import distribution, fleet
        from repro.runtime import Scenario

        super().setup(tracer)
        with tracer.span("fleet.pricing"):
            pools = [fleet.PoolSpec(name=name, replicas=replicas, max_batch=batch,
                                    scenario=Scenario(FLEET_MODEL, device, framework))
                     for name, device, framework, replicas, batch, _ in FLEET_POOLS]
            name, device, framework, replicas, depth, link = FLEET_PIPELINE
            chain = (Scenario(FLEET_MODEL, device, framework),) * depth
            pools.append(fleet.PoolSpec.from_deployment(
                name, distribution.lower_pipeline(chain, link), replicas=replicas))
            self.simulation = fleet.FleetSimulation(
                pools, router="least-outstanding", epochs=FLEET_EPOCHS)
        self.traffic_class = {pool[0]: pool[5] for pool in FLEET_POOLS}
        self.traffic_class[FLEET_PIPELINE[0]] = "pipeline"
        rng = np.random.default_rng(self.seed)
        self.arrivals = np.cumsum(rng.exponential(1.0 / FLEET_RATE_RPS,
                                                  size=self.size.requests))

    def iteration(self, tracer: Any) -> Iteration:
        reset_program_state()
        start = time.perf_counter()
        with tracer.span(spans.ROOT):
            with tracer.span("fleet.serve"):
                stats = self.simulation.run(self.arrivals, seed=self.seed)
            report = stats.to_json()
        seconds = time.perf_counter() - start
        failures = []
        if stats.requests != self.arrivals.size:
            failures.append(f"{stats.requests} requests reported, "
                            f"{self.arrivals.size} sent")
        if stats.completed + stats.dropped + stats.rejected != stats.requests:
            failures.append("completed + dropped + rejected != requests")
        for pool in stats.pools:
            if pool.assigned != pool.completed + pool.dropped:
                failures.append(f"pool {pool.name}: assigned != completed + dropped")
        share = dict.fromkeys(("batched", "fifo", "pipeline"), 0.0)
        for pool in stats.pools:
            share[self.traffic_class[pool.name]] += pool.assigned / stats.requests
        counts = self._counts(**{
            "fleet.sim.completed": stats.completed,
            "fleet.sim.dropped": stats.dropped,
            "fleet.sim.rejected": stats.rejected,
            "fleet.sim.batches": sum(pool.batches for pool in stats.pools),
            "fleet.sim.p99_sojourn_s": stats.sojourn.p99_s,
            "fleet.sim.energy_j": stats.energy_j,
            "fleet.sim.shutdown_events": stats.shutdown_events,
            "fleet.sim.share_batched": share["batched"],
            "fleet.sim.share_fifo": share["fifo"],
            "fleet.sim.share_pipeline": share["pipeline"],
        })
        return Iteration(seconds, [Op("run", seconds, digest(report), failures)], counts)

    def headline(self, iteration_s: float, op_p50_s: float, iterations: int,
                 ops: int) -> dict[str, tuple[float, str, int]]:
        return {"fleet_req_per_s": (self.size.requests / iteration_s, "req/s",
                                    iterations)}


PLACE_REMOTE = ("GTX Titan X",)


class PlaceZoo(Workload):
    name = "place-zoo"

    def setup(self, tracer: Any) -> None:
        from repro.models import list_models

        super().setup(tracer)
        models = list_models()[:self.size.models]
        order = np.random.default_rng(self.seed).permutation(len(models))
        self.models = [models[index] for index in order]

    def iteration(self, tracer: Any) -> Iteration:
        import repro.placement as placement

        reset_program_state()
        timed = []
        start = time.perf_counter()
        with tracer.span(spans.ROOT):
            for model in self.models:
                began = time.perf_counter()
                frontier = placement.search_placements(
                    model, remote_devices=PLACE_REMOTE)
                timed.append((model, time.perf_counter() - began, frontier))
        seconds = time.perf_counter() - start
        ops = []
        candidates = frontier_points = 0
        for model, op_seconds, frontier in timed:
            candidates += len(frontier.candidates)
            frontier_points += len(frontier.frontier)
            failures = [] if frontier.frontier else [f"empty frontier for {model}"]
            ops.append(Op(model, op_seconds, digest(frontier.to_dict()), failures))
        counts = self._counts(**{"placement.candidates": candidates,
                                 "placement.frontier_points": frontier_points})
        return Iteration(seconds, ops, counts)

    def headline(self, iteration_s: float, op_p50_s: float, iterations: int,
                 ops: int) -> dict[str, tuple[float, str, int]]:
        return {"place_zoo_s": (iteration_s, "s", iterations),
                "place_query_p50_s": (op_p50_s, "s", ops)}


class CheckAll(Workload):
    name = "check-all"
    headline_name = "check_s"

    def iteration(self, tracer: Any) -> Iteration:
        import repro.check as check

        reset_program_state()
        start = time.perf_counter()
        with tracer.span(spans.ROOT):
            findings = check.run_checks(self.size.passes)
        seconds = time.perf_counter() - start
        rendered = [finding.render() for finding in findings]
        op = Op("check", seconds, digest(rendered), rendered[:5])
        return Iteration(seconds, [op],
                         self._counts(**{"check.findings": len(findings)}))


WORKLOADS = {cls.name: cls for cls in (SuiteCold, Fleet, PlaceZoo, CheckAll)}
