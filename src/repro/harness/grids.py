"""Scenario grids: the cells each gridded experiment will ask the Runner for.

The figure generators in :mod:`repro.harness.figures` walk their cells one
``Runner.run``/``Runner.measure`` call at a time, which is the right shape
for readable generators but the wrong shape for the engine — every call
re-enters the deploy/plan pipeline alone.  This module declares, per
experiment, the scenario grid those walks will touch, so the suite can hand
the whole grid to the sweep compiler (``Runner.run_grid``) up front and let
the generators hit the record cache.

Declaring a superset is safe: precompiled cells the generator never reads
cost one shared array-program row each.  Declaring too little is also safe:
a cell outside the declared grid compiles as a one-cell grid when the
generator asks ``Runner.run`` for it, with identical results.  The
grid/walk agreement is pinned by the harness identity tests.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.harness import paper_data as paper
from repro.harness.figures import FIG11_PLATFORMS, FIG34_FRAMEWORKS, FIG34_MODELS
from repro.runtime import Scenario, default_runner

#: experiment id -> () -> (timed cells, untimed cells), in generator walk order.
GRID_BUILDERS: dict[str, Callable[[], tuple[list[Scenario], list[Scenario]]]] = {}


def _grid(experiment_id: str):
    def register(builder):
        GRID_BUILDERS[experiment_id] = builder
        return builder

    return register


def _cross(models: Iterable[str], device_name: str,
           frameworks: Iterable[str]) -> list[Scenario]:
    return [Scenario(model_name, device_name, framework_name)
            for model_name in models for framework_name in frameworks]


@_grid("fig02")
def _fig02() -> tuple[list[Scenario], list[Scenario]]:
    # best_latency tries every candidate framework per (device, model).
    runner = default_runner()
    timed = [
        Scenario(model_name, device_name, framework_name)
        for device_name in paper.FIG2_BEST_S
        for model_name in paper.FIG2_MODELS
        for framework_name in runner.candidates_for(device_name)
    ]
    return timed, []


@_grid("fig03")
def _fig03() -> tuple[list[Scenario], list[Scenario]]:
    return _cross(FIG34_MODELS, "Raspberry Pi 3B", FIG34_FRAMEWORKS), []


@_grid("fig04")
def _fig04() -> tuple[list[Scenario], list[Scenario]]:
    return _cross(FIG34_MODELS, "Jetson TX2", FIG34_FRAMEWORKS), []


@_grid("fig06")
def _fig06() -> tuple[list[Scenario], list[Scenario]]:
    return _cross(paper.FIG6_MODELS, "GTX Titan X",
                  ("PyTorch", "TensorFlow")), []


@_grid("fig07")
def _fig07() -> tuple[list[Scenario], list[Scenario]]:
    return _cross(paper.FIG7_MODELS, "Jetson Nano",
                  ("PyTorch", "TensorRT")), []


@_grid("fig08")
def _fig08() -> tuple[list[Scenario], list[Scenario]]:
    return _cross(paper.FIG8_MODELS, "Raspberry Pi 3B",
                  ("PyTorch", "TensorFlow", "TFLite")), []


@_grid("fig09")
def _fig09() -> tuple[list[Scenario], list[Scenario]]:
    timed = [Scenario(model_name, platform, "PyTorch")
             for model_name in paper.FIG9_MODELS
             for platform in paper.FIG9_PLATFORMS]
    return timed, []


@_grid("fig10")
def _fig10() -> tuple[list[Scenario], list[Scenario]]:
    # The TX2 baseline plus every comparison platform — a fig09 subset.
    timed = [Scenario(model_name, platform, "PyTorch")
             for model_name in paper.FIG9_MODELS
             for platform in ("Jetson TX2", *paper.FIG9_PLATFORMS[1:])]
    return timed, []


@_grid("fig12")
def _fig12() -> tuple[list[Scenario], list[Scenario]]:
    # The generator stops at the first deployable candidate; later
    # candidates are a (cheap, shared) superset.
    runner = default_runner()
    untimed = [
        Scenario(model_name, device_name, framework_name)
        for device_name in FIG11_PLATFORMS
        for model_name in paper.FIG2_MODELS
        for framework_name in runner.candidates_for(device_name,
                                                    default=("PyTorch",))
    ]
    return [], untimed


@_grid("fig13")
def _fig13() -> tuple[list[Scenario], list[Scenario]]:
    untimed = []
    for model_name in paper.FIG13_MODELS:
        untimed.append(Scenario(model_name, "Raspberry Pi 3B", "TensorFlow"))
        untimed.append(Scenario(model_name, "Raspberry Pi 3B", "TensorFlow",
                                containerized=True))
    return [], untimed


def suite_grid(experiment_ids: Iterable[str],
               ) -> tuple[list[Scenario], list[Scenario]]:
    """The deduplicated (timed, untimed) grids for a set of experiments.

    Cells keep first-appearance order, so the deploy-cache outcome
    sequence matches running the experiments back to back.  Experiments
    without a registered grid contribute nothing (their cells compile one
    at a time through ``Runner.run``).
    """
    timed: list[Scenario] = []
    untimed: list[Scenario] = []
    seen_timed: set = set()
    seen_untimed: set = set()
    for experiment_id in experiment_ids:
        builder = GRID_BUILDERS.get(experiment_id)
        if builder is None:
            continue
        cells_timed, cells_untimed = builder()
        for scenario in cells_timed:
            if scenario.key not in seen_timed:
                seen_timed.add(scenario.key)
                timed.append(scenario)
        for scenario in cells_untimed:
            if scenario.key not in seen_untimed:
                seen_untimed.add(scenario.key)
                untimed.append(scenario)
    return timed, untimed
