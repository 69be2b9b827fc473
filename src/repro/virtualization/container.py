"""Docker-style container overhead (Section VI-D).

Virtualization costs come from system-call translation and environment
isolation: a fixed per-inference tax (namespace/cgroup bookkeeping around
the I/O each inference performs) plus a small proportional tax on
user-space time.  Both are tiny, which reproduces the paper's finding that
the slowdown stays within 5% — "contrary to popular belief".

Containerized runs are normally described declaratively — set
``containerized=True`` on a :class:`repro.runtime.Scenario` and the Runner
wraps the session in :data:`DEFAULT_CONTAINER`; construct a
:class:`Container` directly only to model a non-default runtime profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.quantity import Seconds
from repro.engine.executor import InferenceSession

MAX_OVERHEAD_FRACTION = 0.05


@dataclass(frozen=True)
class Container:
    """A container runtime profile.

    Attributes:
        fixed_tax_s: per-inference syscall-translation cost at reference-core
            speed (scaled by the device's CPU slowness like all bookkeeping).
        proportional_tax: fraction added to user-space execution time.
    """

    name: str = "docker"
    fixed_tax_s: float = 1.2e-3
    proportional_tax: float = 0.012

    def wrap(self, session: InferenceSession) -> "ContainerizedSession":
        return ContainerizedSession(container=self, session=session)

    def taxed_latency_s(self, bare_s: float, cpu_scale: float) -> float:
        """The taxed latency for a bare-metal latency (compiled-grid path)."""
        fixed = self.fixed_tax_s * cpu_scale
        taxed = bare_s * (1.0 + self.proportional_tax) + fixed
        return min(taxed, bare_s * (1.0 + MAX_OVERHEAD_FRACTION))


@dataclass
class ContainerizedSession:
    """An inference session running inside a container."""

    container: Container
    session: InferenceSession

    @property
    def latency_s(self) -> float:
        return self.container.taxed_latency_s(self.session.latency_s,
                                              self.session.deployed.cpu_scale)

    @property
    def overhead_fraction(self) -> float:
        bare = self.session.latency_s
        return (self.latency_s - bare) / bare

    @property
    def utilization(self) -> float:
        return self.session.utilization

    @property
    def init_time_s(self) -> float:
        # Image start-up adds seconds, but like bare-metal init it sits
        # outside the timed loop.
        return self.session.init_time_s + 2.0

    def run(self, n_inferences: int) -> list[Seconds]:
        runs = self.session.run(n_inferences)  # the bare session checks the count
        return [self.latency_s] * len(runs)

    @property
    def deployed(self):
        return self.session.deployed

    @property
    def plan(self):
        """The underlying bare-metal execution plan (the container adds no ops)."""
        return self.session.plan

    def describe(self) -> str:
        return (f"{self.session.describe()} "
                f"[{self.container.name}: +{self.overhead_fraction:.1%}]")


# The profile Runner uses for ``Scenario(containerized=True)`` cells.
DEFAULT_CONTAINER = Container()
