"""Layer spans for the traced benchmark run.

The traced run times each ``repro`` layer from the outside: it replaces a
public entry point of the layer with a wrapper that records a span around
the original call, and puts the original back afterwards.  Nothing under
``src/`` knows it is being traced, and tracing never feeds a computed value
(the benchmark checks that traced outputs equal untraced ones).

A span records its name, start, end, parent span and iteration id.  Spans
stay in memory; :meth:`Tracer.chrome_trace` writes them as Chrome
trace-event JSON (``"ph": "X"`` slices, the form
``repro.engine.trace.chrome_trace`` emits) when the benchmark ends.
Per-layer metrics are derived from the spans: a layer's self time is its
spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Iteration id of spans recorded during set-up; timed iterations count from 1.
SETUP = 0

#: The span each workload opens around one timed iteration.
ROOT = "iteration"

# Span fields, stored as small lists for speed: a wrapped call costs one
# list allocation and two clock reads.
_NAME, _START, _END, _PARENT, _ITERATION, _FAILED = range(6)


class Tracer:
    """Records nested spans around wrapped calls; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[tuple[str, int], float] = defaultdict(float)
        self.iteration = SETUP
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _enter(self, name: str) -> int | None:
        stack = self._stack
        if stack and self.spans[stack[-1]][_NAME] == name:
            return None  # an override calling super(): one logical call
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           stack[-1] if stack else -1, self.iteration, False])
        stack.append(index)
        return index

    def _exit(self, index: int, failed: bool) -> None:
        span = self.spans[index]
        span[_END] = time.perf_counter_ns()
        span[_FAILED] = failed
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self._enter(name)
        if index is None:
            yield
            return
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit(index, failed)

    def count(self, name: str, amount: float) -> None:
        self.counters[(name, self.iteration)] += amount

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[["Tracer", Any], None] | None = None) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = enter(name)
            if index is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(index, True)
                raise
            exit_(index, False)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # -- installing wrappers -------------------------------------------------
    def _replace(self, owner: Any, key: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def patch_function(self, module_name: str, attr: str, name: str,
                       on_result: Callable | None = None) -> None:
        """Wrap a module-level function everywhere ``repro`` refers to it.

        Modules that did ``from x import f`` hold their own reference, so
        every ``repro`` module attribute bound to the original is replaced.
        """
        original = getattr(importlib.import_module(module_name), attr)
        traced = self.wrap(name, original, on_result)
        for module_key, module in list(sys.modules.items()):
            if module is None or not (module_key == "repro"
                                      or module_key.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, traced)

    def patch_method(self, cls: type, attr: str, name: str,
                     on_result: Callable | None = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(name, raw.__func__, on_result))
        else:
            traced = self.wrap(name, raw, on_result)
        self._replace(cls, attr, traced)

    def patch_item(self, mapping: dict, key: str, name: str) -> None:
        self._replace(mapping, key, self.wrap(name, mapping[key]))

    def install(self) -> None:
        """Wrap the public entry points of every layer the workloads use."""
        import repro.check as check
        from repro.engine.executor import InferenceSession
        from repro.fleet.report import FleetStats, SojournSummary
        from repro.fleet.router import Router
        from repro.frameworks.base import Framework
        from repro.hardware.thermal import ThermalSimulator
        from repro.measurement.timer import InferenceTimer
        from repro.runtime.runner import Runner

        self.patch_function("repro.models.zoo", "load_model", "models.load_model")
        for cls in _with_subclasses(Framework):
            if "deploy" in cls.__dict__:
                self.patch_method(cls, "deploy", "frameworks.deploy")
        self.patch_method(InferenceSession, "__init__", "engine.session")
        for stage in ("gather", "lower", "scatter"):
            self.patch_function("repro.engine.compile", stage,
                                f"engine.compile.{stage}")
        self.patch_method(Runner, "run", "runtime.run", _count_failed_record)
        self.patch_method(Runner, "run_grid", "runtime.run_grid",
                          _count_failed_records)
        self.patch_method(InferenceTimer, "measure_latency", "measurement.timer")
        self.patch_function("repro.harness.suite", "precompile_experiments",
                            "harness.precompile")
        self.patch_function("repro.harness.suite", "experiment_payload",
                            "harness.generate")
        self.patch_function("repro.distribution.partition", "cut_points",
                            "distribution.cut_points")
        self.patch_function("repro.distribution.split", "split_deployments",
                            "distribution.split", _count_cuts)
        self.patch_function("repro.distribution.pipeline", "lower_pipeline",
                            "distribution.pipeline")
        self.patch_function("repro.placement.optimizer", "search_placements",
                            "placement.search")
        self.patch_function("repro.analysis.pareto", "frontier_indices",
                            "analysis.pareto")
        self.patch_function("repro.fleet.cluster", "resolve_profiles",
                            "fleet.pricing")
        for cls in _with_subclasses(Router):
            if "quotas" in cls.__dict__:
                self.patch_method(cls, "quotas", "fleet.route.quotas")
        self.patch_function("repro.fleet.router", "interleave",
                            "fleet.route.interleave")
        self.patch_method(ThermalSimulator, "step", "hardware.thermal.step")
        self.patch_method(SojournSummary, "from_times", "fleet.report.sojourn")
        self.patch_method(FleetStats, "to_json", "fleet.report.json")
        self.patch_function("repro.check.astutil", "load_package", "check.parse")
        for pass_name in list(check.PASSES):
            self.patch_item(check.PASSES, pass_name, f"check.{pass_name}")

    def restore(self) -> None:
        """Put every original entry point back."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- derived numbers -----------------------------------------------------
    def self_seconds(self) -> dict[tuple[str, int], float]:
        """Self time per (span name, iteration): duration minus children."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_ns[span[_PARENT]] += span[_END] - span[_START]
        totals: dict[tuple[str, int], float] = defaultdict(float)
        for span, children in zip(self.spans, child_ns):
            totals[(span[_NAME], span[_ITERATION])] += (
                span[_END] - span[_START] - children) / 1e9
        return totals

    def calls(self, failed_only: bool = False) -> dict[tuple[str, int], int]:
        totals: dict[tuple[str, int], int] = defaultdict(int)
        for span in self.spans:
            if span[_FAILED] or not failed_only:
                totals[(span[_NAME], span[_ITERATION])] += 1
        return totals

    def seconds(self, name: str, iteration: int) -> float:
        """Summed wall duration of the spans ``name`` in one iteration."""
        return sum(span[_END] - span[_START] for span in self.spans
                   if span[_NAME] == name and span[_ITERATION] == iteration) / 1e9

    def chrome_trace(self, metadata: dict[str, Any]) -> dict[str, Any]:
        """Every span as a Chrome trace-event ``"ph": "X"`` slice."""
        origin = min((span[_START] for span in self.spans), default=0)
        events = [{
            "name": span[_NAME],
            "cat": span[_NAME].split(".")[0],
            "ph": "X",
            "ts": round((span[_START] - origin) / 1e3, 3),
            "dur": round((span[_END] - span[_START]) / 1e3, 3),
            "pid": 1,
            "tid": 1,
            "args": {"iteration": span[_ITERATION], "parent": span[_PARENT],
                     **({"failed": True} if span[_FAILED] else {})},
        } for span in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": metadata}


class NullTracer:
    """Stands in for a :class:`Tracer` in untraced iterations."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def _count_failed_record(tracer: Tracer, record: Any) -> None:
    tracer.count("runtime.records_failed", int(record.failed))


def _count_failed_records(tracer: Tracer, records: Any) -> None:
    tracer.count("runtime.records_failed", sum(record.failed for record in records))


def _count_cuts(tracer: Tracer, deployments: Any) -> None:
    tracer.count("distribution.split.cuts", len(deployments))


# -- per-layer metrics -------------------------------------------------------
#: metric -> span names whose self time it sums, per timed iteration.
SELF_TIME = {
    "models.load_model_s": ("models.load_model",),
    "frameworks.deploy_s": ("frameworks.deploy",),
    "engine.compile.gather_s": ("engine.compile.gather",),
    "engine.compile.lower_s": ("engine.compile.lower",),
    "engine.compile.scatter_s": ("engine.compile.scatter",),
    "engine.session_s": ("engine.session",),
    "runtime.run_s": ("runtime.run",),
    "runtime.run_grid_s": ("runtime.run_grid",),
    "measurement.timer_s": ("measurement.timer",),
    "harness.precompile_s": ("harness.precompile",),
    "harness.generate_s": ("harness.generate",),
    "distribution.cut_points_s": ("distribution.cut_points",),
    "distribution.split_s": ("distribution.split",),
    "distribution.pipeline_s": ("distribution.pipeline",),
    "placement.search_s": ("placement.search",),
    "analysis.pareto_s": ("analysis.pareto",),
    "fleet.route_s": ("fleet.route.quotas", "fleet.route.interleave"),
    "fleet.serve_s": ("fleet.serve",),
    "fleet.report_s": ("fleet.report.sojourn", "fleet.report.json"),
    "hardware.thermal_s": ("hardware.thermal.step",),
    "check.parse_s": ("check.parse",),
    "check.ir_s": ("check.ir",),
    "check.shapes_s": ("check.shapes",),
    "check.tables_s": ("check.tables",),
    "check.arch_s": ("check.arch",),
    "check.units_s": ("check.units",),
    "check.effects_s": ("check.effects",),
    "unattributed_s": (ROOT,),
}

#: metric -> span name whose calls it counts, per timed iteration.
CALLS = {
    "models.load_model.calls": "models.load_model",
    "frameworks.deploy.calls": "frameworks.deploy",
    "engine.session.calls": "engine.session",
    "runtime.run.calls": "runtime.run",
    "runtime.run_grid.calls": "runtime.run_grid",
    "distribution.cut_points.calls": "distribution.cut_points",
    "distribution.split.calls": "distribution.split",
    "distribution.pipeline.calls": "distribution.pipeline",
    "fleet.route.calls": "fleet.route.quotas",
    "hardware.thermal.steps": "hardware.thermal.step",
}

#: metric -> span name whose failed (raising) calls it counts.
FAILED_CALLS = {"frameworks.deploy.failed": "frameworks.deploy"}

#: counters the result hooks accumulate, per timed iteration.
COUNTERS = ("runtime.records_failed", "distribution.split.cuts")

#: metric -> span whose whole duration in set-up it reports: pools are
#: priced once, before the first iteration.
SETUP_TIME = {"fleet.pricing_s": "fleet.pricing"}


def layer_metrics(tracer: Tracer, iterations: list[int]) -> dict[str, float]:
    """Per-iteration means of every span-derived per-layer metric, plus
    the set-up spans of ``SETUP_TIME``."""
    count = len(iterations)
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    failed = tracer.calls(failed_only=True)
    metrics: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        metrics[metric] = sum(self_s.get((name, i), 0.0)
                              for name in names for i in iterations) / count
    for metric, name in CALLS.items():
        metrics[metric] = sum(calls.get((name, i), 0) for i in iterations) / count
    for metric, name in FAILED_CALLS.items():
        metrics[metric] = sum(failed.get((name, i), 0) for i in iterations) / count
    for name in COUNTERS:
        metrics[name] = sum(tracer.counters.get((name, i), 0.0)
                            for i in iterations) / count
    for metric, name in SETUP_TIME.items():
        metrics[metric] = tracer.seconds(name, SETUP)
    return metrics
