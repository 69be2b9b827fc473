"""Autoscaling and admission control, driven by queue depth.

Both knobs act at epoch boundaries, on the same state the router sees:

* :class:`AdmissionControl` bounds each node's queue.  The router's
  per-node quota is capped at ``max_queue_per_node - outstanding``;
  arrivals nobody has headroom for are rejected at the front door (they
  never reach a pool), which is what keeps an overloaded fleet's tail
  latency finite.
* :class:`Autoscaler` turns replicas on and off per pool.  When the mean
  outstanding per active node crosses ``high_depth`` a standby replica is
  woken (paying the deployment's ``init_time_s`` before it takes
  traffic); when it falls below ``low_depth`` one replica stops taking
  new work and drains.  A per-pool cooldown stops flapping.

Deactivated replicas keep serving their backlog — scaling down never
drops requests — and still draw idle power in the energy account, the
honest cost of keeping hardware racked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.fleet.cluster import Cluster


@dataclass(frozen=True)
class AdmissionControl:
    """Per-node queue bound; ``None`` admits everything."""

    max_queue_per_node: int | None = None

    def __post_init__(self) -> None:
        bound = self.max_queue_per_node
        if bound is not None and (type(bound) is not int or bound < 1):  # not bool
            raise ValueError(f"max_queue_per_node must be an integer >= 1, got {bound!r}")

    def headroom(self, outstanding):
        """New requests a node may accept this epoch (inf = unbounded);
        elementwise for an array of outstanding counts."""
        if self.max_queue_per_node is None:
            return math.inf
        return np.maximum(self.max_queue_per_node - outstanding, 0.0)


@dataclass
class Autoscaler:
    """Queue-depth pool scaler with hysteresis and cooldown.

    Attributes:
        high_depth: mean outstanding per active node that triggers a
            scale-up.
        low_depth: mean outstanding per active node below which one
            replica is drained.
        min_replicas: floor of active replicas per pool.
        cooldown_epochs: epochs a pool waits between scaling actions.
    """

    high_depth: float = 8.0
    low_depth: float = 1.0
    min_replicas: int = 1
    cooldown_epochs: int = 4
    _cooldowns: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.low_depth >= self.high_depth:
            raise ValueError("autoscale hysteresis requires low_depth < high_depth")
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.cooldown_epochs < 0:
            raise ValueError("cooldown_epochs must be >= 0")

    def reset(self) -> None:
        self._cooldowns.clear()

    def scale(self, pool_name: str, cluster: Cluster, now_s: float) -> int:
        """Apply one epoch's decision to a pool's nodes.

        Returns -1, 0 or +1 (the action taken).  Scale-up activates the
        longest-parked standby replica and charges the deployment's init
        time before it becomes routable; scale-down deactivates the
        active replica with the shortest queue so the drain is quick.
        """
        remaining = self._cooldowns.get(pool_name, 0)
        if remaining > 0:
            self._cooldowns[pool_name] = remaining - 1
            return 0
        nodes = cluster.pool_slice(pool_name)
        up = ~cluster.shutdown[nodes]
        serving = np.flatnonzero(cluster.active[nodes] & up) + nodes.start
        standby = np.flatnonzero(~cluster.active[nodes] & up) + nodes.start
        if not serving.size:
            if not standby.size:
                return 0
            self._activate(cluster, pool_name, int(standby[0]), now_s)
            return 1
        depth = (int(cluster.outstanding(now_s)[serving].sum())
                 / serving.size)
        if depth > self.high_depth and standby.size:
            self._activate(cluster, pool_name, int(standby[0]), now_s)
            return 1
        if depth < self.low_depth and serving.size > self.min_replicas:
            # argmin takes the first minimum: depth ties break by index.
            quietest = serving[np.argmin(cluster.depth[serving])]
            cluster.active[quietest] = False
            self._cooldowns[pool_name] = self.cooldown_epochs
            return -1
        return 0

    def _activate(self, cluster: Cluster, pool_name: str, node: int,
                  now_s: float) -> None:
        cluster.active[node] = True
        cluster.available_at_s[node] = (
            now_s + cluster.profiles[pool_name].init_time_s)
        self._cooldowns[pool_name] = self.cooldown_epochs
