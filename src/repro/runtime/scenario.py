"""Scenario: the frozen description of one experiment cell.

A scenario names everything that determines a run's outcome: the model,
device and framework triple the paper sweeps, plus the deployment datatype,
batch size, DVFS power mode and whether the session runs inside a
container.  Its canonical key is the single source of truth for

* the deploy-cache key (``Scenario.deploy_key``), and
* the per-cell measurement seed (``Scenario.seed``).

Both derive from :func:`repro.core.registry.canonical_name`, so aliases
("resnet18", "ResNet_18") describe the same cell and reproduce the exact
seed/key streams the harness has always used.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.core.registry import canonical_name
from repro.graphs.tensor import DType

DEFAULT_POWER_MODE = "default"


@dataclass(frozen=True)
class Scenario:
    """One deployable experiment cell, hashable and JSON-serializable.

    Attributes:
        model / device / framework: names as the user spells them; keys and
            seeds always canonicalize, so aliases are equivalent.
        dtype: deployment datatype, or None for the framework default.
        batch_size: inputs per invocation (1 = the paper's edge regime).
        power_mode: DVFS operating-point name ("default" = as shipped).
        containerized: run the session inside the Docker profile
            (Section VI-D) instead of bare metal.
    """

    model: str
    device: str
    framework: str
    dtype: DType | None = None
    batch_size: int = 1
    power_mode: str = DEFAULT_POWER_MODE
    containerized: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.dtype, str):
            object.__setattr__(self, "dtype", DType(self.dtype))
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    # -- canonical identity ------------------------------------------------
    # Each identity is computed on first access and kept in the instance
    # ``__dict__`` under a leading-underscore name (the fields have none):
    # equality, hashing and ``replace`` read the fields only, and
    # ``__getstate__`` leaves the memo out of pickles and copies.

    @property
    def cell(self) -> tuple[str, str, str]:
        """The canonical (model, device, framework) triple."""
        memo = self.__dict__
        if "_cell" not in memo:
            memo["_cell"] = (
                canonical_name(self.model),
                canonical_name(self.device),
                canonical_name(self.framework),
            )
        return memo["_cell"]

    @property
    def cell_id(self) -> str:
        """Canonical ``model|device|framework`` string (the seed domain)."""
        memo = self.__dict__
        if "_cell_id" not in memo:
            memo["_cell_id"] = "|".join(self.cell)
        return memo["_cell_id"]

    @property
    def key(self) -> str:
        """Full canonical key covering every axis of the scenario."""
        memo = self.__dict__
        if "_key" not in memo:
            dtype = self.dtype.value if self.dtype is not None else "default"
            memo["_key"] = (
                f"{self.cell_id}|dtype={dtype}|batch={self.batch_size}"
                f"|power={self.power_mode.lower()}"
                f"|container={'yes' if self.containerized else 'no'}"
            )
        return memo["_key"]

    @property
    def seed(self) -> int:
        """Deterministic measurement seed for this cell.

        Hashes only the canonical triple — datatype, batch size and power
        mode never entered the seed, and keeping it that way preserves the
        harness's historical noise streams (run order, caching and worker
        scheduling independent).
        """
        memo = self.__dict__
        if "_seed" not in memo:
            digest = hashlib.blake2s(self.cell_id.encode(), digest_size=4).digest()
            memo["_seed"] = int.from_bytes(digest, "big")
        return memo["_seed"]

    def __getstate__(self) -> dict[str, Any]:
        return {name: value for name, value in self.__dict__.items()
                if not name.startswith("_")}

    @property
    def deploy_key(self) -> tuple:
        """Deploy-cache key: the canonical triple plus the datatype."""
        return (*self.cell, self.dtype)

    @property
    def is_default_runtime(self) -> bool:
        """Whether deployment may go through the shared memo cache.

        Non-default power modes rebuild the device with scaled physics, so
        their deployments must not share cache entries with the stock
        device.  Batch size and containerization only affect the session
        built on top of a deployment, never the deployment itself.
        """
        return self.power_mode.lower() == DEFAULT_POWER_MODE

    # -- derived scenarios -------------------------------------------------
    def with_framework(self, framework: str) -> "Scenario":
        """The same cell deployed through a different framework."""
        return replace(self, framework=framework)

    # -- JSON round trip ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "device": self.device,
            "framework": self.framework,
            "dtype": None if self.dtype is None else self.dtype.value,
            "batch_size": self.batch_size,
            "power_mode": self.power_mode,
            "containerized": self.containerized,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        dtype = payload.get("dtype")
        return cls(
            model=payload["model"],
            device=payload["device"],
            framework=payload["framework"],
            dtype=None if dtype is None else DType(dtype),
            batch_size=payload.get("batch_size", 1),
            power_mode=payload.get("power_mode", DEFAULT_POWER_MODE),
            containerized=payload.get("containerized", False),
        )

    def describe(self) -> str:
        extras = []
        if self.dtype is not None:
            extras.append(self.dtype.value)
        if self.batch_size != 1:
            extras.append(f"batch {self.batch_size}")
        if self.power_mode.lower() != DEFAULT_POWER_MODE:
            extras.append(f"@ {self.power_mode}")
        if self.containerized:
            extras.append("containerized")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return f"{self.model} on {self.device} via {self.framework}{suffix}"


__all__ = ["DEFAULT_POWER_MODE", "Scenario"]
