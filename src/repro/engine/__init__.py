"""Analytical execution engine.

Turns a :class:`~repro.frameworks.base.DeployedModel` into per-op and
per-inference latency via a roofline model (compute term vs memory term per
op, plus dispatch and framework overheads).  Per-(framework, device)
efficiencies are one-point calibrated against paper anchors
(:mod:`repro.engine.calibration`); every other (model, framework, device)
combination is a prediction.

Every measurement compiles through :mod:`repro.engine.compile`, which
dedups the deploy/plan pipeline across a grid's cells and lowers every
roofline into one array program.
"""

from repro.engine.executor import EngineConfig, ExecutionPlan, InferenceSession, OpTiming
from repro.engine.roofline import RooflineInputs, lower_rooflines_s
from repro.engine.calibration import ANCHORS, efficiency_scale
from repro.engine.cache import (
    cache_stats,
    cached_deploy,
    cached_graph,
    caching_disabled,
    caching_enabled,
    clear_caches,
    set_caching,
)
# compile imports repro.runtime.scenario, which may re-enter this package
# mid-initialization — everything it needs is bound above, so keep it last.
from repro.engine.compile import (
    CompiledCell,
    CompileStats,
    compile_stats,
    reset_compile_stats,
)

__all__ = [
    "ANCHORS",
    "CompileStats",
    "CompiledCell",
    "EngineConfig",
    "ExecutionPlan",
    "InferenceSession",
    "OpTiming",
    "RooflineInputs",
    "cache_stats",
    "cached_deploy",
    "cached_graph",
    "caching_disabled",
    "caching_enabled",
    "clear_caches",
    "compile_stats",
    "efficiency_scale",
    "lower_rooflines_s",
    "reset_compile_stats",
    "set_caching",
]
