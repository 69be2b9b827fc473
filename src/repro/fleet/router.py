"""Routing policies: who serves the next epoch's arrivals.

The simulator routes per *epoch*, not per request: at each epoch boundary
a policy sees a snapshot of every node (:class:`RoutingView`) and returns
an integer quota per node; the epoch's arrivals are then spread across
nodes by an order-preserving interleave, so each node receives its share
as a FIFO subsequence of the arrival stream.  Quotas are capped by the
admission limits in the view — a policy can also return fewer than
``count`` total, and the simulator drops the overflow (admission
control).

All policies are deterministic: same view, same quotas.  The water-fill
solver and the interleave are vectorized — routing a million requests
costs a few array ops per epoch, not a million policy calls.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RoutingView:
    """What a policy is allowed to see at one epoch boundary.

    Attributes:
        outstanding: per-node queued + in-service request counts.
        limits: per-node admission headroom (new requests the node may
            accept this epoch; ``inf`` = unbounded).
        energy_per_request_j: per-node active energy of one request.
        capacity: per-node requests servable this epoch at full batch
            without growing the queue.
    """

    outstanding: np.ndarray
    limits: np.ndarray
    energy_per_request_j: np.ndarray
    capacity: np.ndarray

    @property
    def node_count(self) -> int:
        return int(self.outstanding.size)


class Router:
    """Base policy: subclasses override :meth:`quotas`."""

    name = "base"

    def quotas(self, view: RoutingView, count: int) -> np.ndarray:
        """Integer assignments per node, summing to at most ``count``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any cross-epoch state (round-robin offsets etc.)."""


def water_fill(count: int, base: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Split ``count`` across nodes, equalizing ``base + quota``.

    The classic water-filling allocation with per-node caps: find the
    level ``L`` such that ``sum(clip(L - base, 0, limits)) == count`` and
    hand out the integer floor, then distribute the remainder to the
    nodes with the largest fractional parts (ties broken by index, so the
    split is deterministic).  Returns quotas summing to
    ``min(count, sum(limits))``.

    The level is defined as 64 halvings of ``[min(base), max(base +
    limits)]`` on the test ``supplied(mid) < count``.  The supplied amount,
    rounded as NumPy computes it, never falls as the level rises, so the
    test is ``mid < h`` for the smallest float ``h`` that supplies
    ``count``: :func:`_threshold` finds ``h`` in a few evaluations, and the
    halvings replay on plain floats with the same bits.
    """
    limits = np.minimum(limits, float(count))
    total_cap = float(limits.sum())
    if total_cap <= count:
        return limits.astype(np.int64)
    low = float(base.min())
    high = float((base + limits).max())
    threshold = _threshold(count, base, limits, low, high)
    for _ in range(64):
        mid = 0.5 * (low + high)
        if mid < threshold:
            low = mid
        else:
            high = mid
    exact = np.clip(high - base, 0.0, limits)
    quotas = np.floor(exact).astype(np.int64)
    shortfall = count - int(quotas.sum())
    if shortfall > 0:
        fractional = exact - quotas
        fractional = np.where(quotas < limits, fractional, -1.0)
        order = np.lexsort((np.arange(base.size), -fractional))
        quotas[order[:shortfall]] += 1
    return quotas


def _threshold(count: int, base: np.ndarray, limits: np.ndarray,
               low: float, high: float) -> float:
    """The smallest float level in ``(low, high]`` that supplies ``count``.

    Gallops from the closed-form level over float64 ranks (:func:`_rank`),
    then bisects.  ``low`` supplies nothing; if ``high`` does not supply
    ``count`` either, the float after it stands in.  The routers' levels
    take 2-4 evaluations; a seed many ranks off (a level near zero, where
    floats are densest) costs up to about twice the 64 of plain bisection.
    """
    def supplies(rank: int) -> bool:
        # The halvings' own expression, so it rounds exactly as they would.
        return np.clip(_float(rank) - base, 0.0, limits).sum() >= count

    below, above = _rank(low), _rank(high) + 1
    guess = min(max(_rank(_level(count, base, limits)), below + 1), above - 1)
    step = 1
    if supplies(guess):
        above = guess
        while above - step > below and supplies(above - step):
            above -= step
            step *= 2
        below = max(below, above - step)
    else:
        below = guess
        while below + step < above and not supplies(below + step):
            below += step
            step *= 2
        above = min(above, below + step)
    while above - below > 1:
        middle = (below + above) // 2
        if supplies(middle):
            above = middle
        else:
            below = middle
    return _float(above)


def _level(count: int, base: np.ndarray, limits: np.ndarray) -> float:
    """Where ``sum(clip(L - base, 0, limits))`` reaches ``count``, up to
    rounding: the supply is piecewise linear in ``L``, its slope rising by
    one at each ``base`` and falling by one at each ``base + limits``.
    """
    edges = np.concatenate((base, base + limits))
    order = np.argsort(edges, kind="stable")
    edges = edges[order]
    slope = np.cumsum(np.where(order < base.size, 1.0, -1.0))
    supply = np.cumsum(slope[:-1] * np.diff(edges))  # at edges[1:]
    # If rounding keeps every supply below count, use the last segment
    # (its slope is 1).
    segment = min(int(np.searchsorted(supply, count)), edges.size - 2)
    supplied = float(supply[segment - 1]) if segment else 0.0
    return float(edges[segment] + (count - supplied) / slope[segment])


def _rank(value: float) -> int:
    """``value``'s position in float64 order; -0.0 and 0.0 share 0."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _float(rank: int) -> float:
    """The float64 at position ``rank`` (the inverse of :func:`_rank`)."""
    bits = rank if rank >= 0 else -rank - (1 << 63)
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def interleave(quotas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node index and FIFO position per arrival, spreading each share evenly.

    Each node's ``q`` requests sit at evenly spaced virtual positions
    ``(k + 0.5) / q``; a stable argsort merges them, so every node sees
    its arrivals in FIFO order and no node's share clumps at one end of
    the epoch.  Returns ``(nodes, ranks)``: arrival ``t`` is request
    number ``ranks[t]`` of node ``nodes[t]``'s share.
    """
    total = int(quotas.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    node_ids = np.repeat(np.arange(quotas.size, dtype=np.int64), quotas)
    offsets = np.repeat(np.cumsum(quotas) - quotas, quotas)
    within = np.arange(total, dtype=np.int64) - offsets
    positions = (within + 0.5) / np.repeat(quotas, quotas)
    order = np.argsort(positions, kind="stable")
    return node_ids[order], within[order]


class RoundRobinRouter(Router):
    """Blind even split, rotating which node takes the remainder."""

    name = "round-robin"

    def __init__(self) -> None:
        self._offset = 0

    def reset(self) -> None:
        self._offset = 0

    def quotas(self, view: RoutingView, count: int) -> np.ndarray:
        n = view.node_count
        rotation = (np.arange(n) - self._offset) % n
        quotas = water_fill(count, rotation / max(n, 1) * 1e-9, view.limits)
        self._offset = (self._offset + count) % max(n, 1)
        return quotas


class LeastOutstandingRouter(Router):
    """Join-the-shortest-queue at epoch granularity.

    Water-fills on current outstanding counts, so lightly loaded nodes
    absorb more of the epoch and the fleet's queues stay level.
    """

    name = "least-outstanding"

    def quotas(self, view: RoutingView, count: int) -> np.ndarray:
        return water_fill(count, view.outstanding.astype(np.float64),
                          view.limits)


class EnergyAwareRouter(Router):
    """Cheapest joules-per-request first, spilling over on saturation.

    Nodes are ranked by active energy per request; each takes up to its
    spare capacity this epoch before the next-cheapest is touched.
    Overflow beyond the fleet's total capacity water-fills over the
    remaining admission headroom in the same energy order, so sustained
    overload degrades into balanced queueing instead of melting the
    single cheapest node.
    """

    name = "energy-aware"

    def quotas(self, view: RoutingView, count: int) -> np.ndarray:
        order = np.lexsort((np.arange(view.node_count),
                            view.energy_per_request_j))
        caps = np.minimum(view.capacity, view.limits)[order]
        cumulative = np.cumsum(caps)
        fill = np.clip(count - (cumulative - caps), 0.0, caps)
        quotas = np.zeros(view.node_count, dtype=np.int64)
        quotas[order] = fill.astype(np.int64)
        leftover = count - int(quotas.sum())
        if leftover > 0:
            headroom = view.limits - quotas
            rank = np.empty(view.node_count, dtype=np.float64)
            rank[order] = np.arange(view.node_count, dtype=np.float64)
            quotas += water_fill(leftover, rank, headroom)
        return quotas


ROUTER_POLICIES: dict[str, type[Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastOutstandingRouter.name: LeastOutstandingRouter,
    EnergyAwareRouter.name: EnergyAwareRouter,
}


def make_router(name: str) -> Router:
    """Instantiate a policy by its registry name."""
    try:
        return ROUTER_POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(ROUTER_POLICIES))
        raise ValueError(f"unknown router policy {name!r}; known: {known}") from None
