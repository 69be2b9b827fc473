"""Request workloads.

The paper frames edge inference as single-batch because of "the limited
number of available requests in a given time" (Section I).  This package
makes that workload explicit: arrival processes (periodic sensor frames,
Poisson request streams, bursts, day/night cycles) and the duty-cycle
energy budget of a steady request rate.  :mod:`repro.fleet` serves the
streams, from one device's FIFO queue to a routed fleet, and turns a
device's per-inference latency into the latency percentiles and
utilization a deployment actually experiences.
"""

from repro.workloads.arrivals import (
    Arrivals,
    BurstyArrivals,
    DiurnalArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    first_n,
    reseeded,
)
from repro.workloads.energy_budget import EnergyBudget, duty_cycle_budget

__all__ = [
    "Arrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "EnergyBudget",
    "PeriodicArrivals",
    "PoissonArrivals",
    "duty_cycle_budget",
    "first_n",
    "reseeded",
]
