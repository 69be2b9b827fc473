"""Network links between cooperating devices.

Transfer time = latency + payload / effective bandwidth, the same
first-order model the device-local :class:`TransferLink` uses, plus named
presets for the links the distributed-inference literature evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import UnknownEntryError
from repro.core.quantity import MEBI


@dataclass(frozen=True)
class NetworkLink:
    """A point-to-point link.

    Attributes:
        name: preset or descriptive name.
        bandwidth_bytes_per_s: sustained goodput.
        latency_s: one-way latency per message.
        reliability: fraction of payloads delivered on the first attempt;
            retransmissions inflate the effective transfer time.
    """

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float
    reliability: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency cannot be negative")
        if not 0 < self.reliability <= 1:
            raise ValueError("reliability must be in (0, 1]")

    def transfer_time_s(self, num_bytes: float | np.ndarray) -> float | np.ndarray:
        """Expected time to deliver ``num_bytes`` (retries amortized).

        Element-wise over an array of payload sizes (a float64 column,
        each entry bit-identical to the scalar form)."""
        if (np.asarray(num_bytes) < 0).any():
            raise ValueError("cannot transfer a negative payload")
        raw = self.latency_s + num_bytes / self.bandwidth_bytes_per_s
        return raw / self.reliability


LINK_PRESETS: dict[str, NetworkLink] = {
    "wifi": NetworkLink("wifi", bandwidth_bytes_per_s=6.25 * MEBI, latency_s=3e-3),
    "wifi-congested": NetworkLink("wifi-congested", bandwidth_bytes_per_s=1.25 * MEBI,
                                  latency_s=10e-3, reliability=0.9),
    "ethernet": NetworkLink("ethernet", bandwidth_bytes_per_s=117 * MEBI, latency_s=0.3e-3),
    "lan": NetworkLink("lan", bandwidth_bytes_per_s=117 * MEBI, latency_s=0.5e-3),
    "lte": NetworkLink("lte", bandwidth_bytes_per_s=1.5 * MEBI, latency_s=50e-3),
    "5g": NetworkLink("5g", bandwidth_bytes_per_s=31.25 * MEBI, latency_s=12e-3),
    "bluetooth": NetworkLink("bluetooth", bandwidth_bytes_per_s=0.25 * MEBI, latency_s=20e-3),
    "loopback": NetworkLink("loopback", bandwidth_bytes_per_s=4000 * MEBI, latency_s=10e-6),
}

#: presets the distributed-inference literature expects to exist by name;
#: the TAB013 rule (repro.check.tables) enforces their presence and sanity.
REQUIRED_LINK_PRESETS = ("wifi", "lte", "5g", "lan", "loopback")


def load_link(name: str) -> NetworkLink:
    """Look up a link preset by name."""
    try:
        return LINK_PRESETS[name]
    except KeyError:
        options = ", ".join(sorted(LINK_PRESETS))
        raise UnknownEntryError(f"unknown link {name!r}; options: {options}") from None


def resolve_link(link: NetworkLink | str) -> NetworkLink:
    """Accept a link object or a preset name (the lowering-rule calling
    convention)."""
    if isinstance(link, NetworkLink):
        return link
    return load_link(link)
