"""First-class run descriptions: Scenario -> Runner -> RunRecord.

The harness used to thread bare ``(model, device, framework)`` string
triples through every layer — cache keys in :mod:`repro.engine.cache`,
measurement seeds in :mod:`repro.harness.figures`, candidate loops and
``try/except ReproError`` blocks scattered per figure.  This package makes
the run itself the object:

* :class:`Scenario` — a frozen description of one experiment cell (model,
  device, framework, plus dtype, batch size, power mode and container
  flag).  Its canonical key is the single source of truth for deploy-cache
  keys and measurement seeds.
* :class:`RunRecord` — the structured result of running one scenario:
  latency statistics, plan aggregates, power/energy, cache provenance, and
  a failure taxonomy that turns Table V incompatibilities into data
  instead of control flow.  JSON round-trips losslessly.
* :class:`Runner` — the one audited measurement path: every cell, alone
  or in a grid, compiles through the sweep compiler, then gets the
  paper-methodology timer; :meth:`Runner.run_cells` fans batches of cells
  across a worker pool.

Example::

    from repro.runtime import Runner, Scenario

    record = Runner().run(Scenario("ResNet-18", "Jetson Nano", "TensorRT"))
    if record.ok:
        print(record.latency_s, record.provenance.deploy_cache)
    else:
        print(record.failure.kind)   # e.g. "memory_error"
"""

from repro.runtime.record import (
    FailureRecord,
    LatencyStats,
    PlanBreakdown,
    Provenance,
    RunRecord,
    failure_kind,
)
from repro.runtime.runner import (
    BEST_FRAMEWORK_CANDIDATES,
    Runner,
    default_runner,
)
from repro.runtime.scenario import Scenario

__all__ = [
    "BEST_FRAMEWORK_CANDIDATES",
    "FailureRecord",
    "LatencyStats",
    "PlanBreakdown",
    "Provenance",
    "RunRecord",
    "Runner",
    "Scenario",
    "default_runner",
    "failure_kind",
]
