"""`repro.fleet`: a vectorized fleet-scale serving simulator.

The paper measures one device at a time; a production deployment is a
heterogeneous *fleet* — pools of Nanos, TX2s and Pis behind a router,
serving millions of requests (the Section VI-C single-batch-vs-batched
contrast at scale; DeepEdgeBench and pCAMP compare exactly such fleets).
This package simulates that:

* :mod:`~repro.fleet.cluster` — pools of identical replicas, each pool one
  :class:`~repro.runtime.scenario.Scenario` whose per-batch service times
  are resolved **once** through ``Runner.run_grid`` (cached, bit-identical
  to the paper's engine path), plus the fleet's serving state as arrays;
* :mod:`~repro.fleet.router` — pluggable epoch routing policies
  (round-robin, least-outstanding, energy-aware);
* :mod:`~repro.fleet.autoscale` — queue-depth autoscaling and admission
  control;
* :mod:`~repro.fleet.simulate` — the event loop: padded Lindley kernels
  over every batch-1 node between routing epochs (a million requests in
  seconds, not a per-request Python heap).  The kernel, :func:`lindley`,
  also serves a lone FIFO with per-request service times;
* :mod:`~repro.fleet.report` — :class:`~repro.fleet.report.FleetStats`:
  p50/p99/p999 sojourn, throughput, energy per request, thermal events,
  per-pool utilization and drop fractions, JSON round-trippable.

Everything is seeded and deterministic: the same pools, workload and seed
produce byte-identical reports.
"""

from repro.fleet.autoscale import AdmissionControl, Autoscaler
from repro.fleet.cluster import (
    Cluster,
    PoolSpec,
    ServiceProfile,
    StageProfile,
    resolve_profiles,
)
from repro.fleet.report import FleetStats, PoolStats, SojournSummary
from repro.fleet.router import (
    ROUTER_POLICIES,
    EnergyAwareRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    Router,
    RoutingView,
    make_router,
)
from repro.fleet.simulate import FleetSimulation, lindley, simulate_fleet

__all__ = [
    "AdmissionControl",
    "Autoscaler",
    "Cluster",
    "EnergyAwareRouter",
    "FleetSimulation",
    "FleetStats",
    "LeastOutstandingRouter",
    "PoolSpec",
    "PoolStats",
    "ROUTER_POLICIES",
    "RoundRobinRouter",
    "Router",
    "RoutingView",
    "ServiceProfile",
    "StageProfile",
    "SojournSummary",
    "lindley",
    "make_router",
    "resolve_profiles",
    "simulate_fleet",
]
