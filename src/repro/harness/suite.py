"""Whole-suite export and run-to-run comparison.

``export_results`` snapshots every experiment's table to one JSON document;
``compare_results`` diffs two snapshots within a tolerance.  Together they
give the repository a regression workflow: snapshot before a change,
compare after, and see exactly which experiment cells moved.

Exports are compiled, not just cached: before the experiments run,
``precompile_experiments`` hands every gridded experiment's scenario cells
to the sweep compiler in one batch (``Runner.run_grid``), and finished
payloads are memoized per experiment id, so a warm re-export is a straight
cache read.  Both layers are observationally invisible — the identity suite
diffs compiled against scalar exports at zero tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.engine.cache import PAYLOAD_CACHE, caching_enabled
from repro.harness.registry import EXPERIMENT_REGISTRY, list_experiments, run_experiment

SNAPSHOT_VERSION = 1


def experiment_payload(experiment_id: str) -> dict[str, Any]:
    """Run one experiment and shape its table as a JSON-safe snapshot cell.

    Payloads are memoized (treat them as immutable, like every cached
    artifact); ``--no-cache`` rebuilds from scratch.
    """
    if caching_enabled():
        found, payload = PAYLOAD_CACHE.cached_value(experiment_id)
        if found:
            return payload
    experiment = EXPERIMENT_REGISTRY.create(experiment_id)
    table = run_experiment(experiment_id)
    payload = {
        "paper_reference": experiment.paper_reference,
        "description": experiment.description,
        "title": table.title,
        "columns": table.columns,
        "rows": table.to_records(),
        "notes": table.notes,
    }
    if caching_enabled():
        payload = PAYLOAD_CACHE.store(experiment_id, payload)
    return payload


def precompile_experiments(experiment_ids: list[str]) -> None:
    """Compile every gridded experiment's cells ahead of the generators.

    One ``run_grid`` call per timing mode dedups deployments and plans
    across ALL the experiments and lowers their rooflines together; the
    generators then resolve their cells from the record cache.  A no-op
    for experiments without a declared grid.
    """
    from repro.harness.grids import suite_grid
    from repro.runtime import default_runner

    timed, untimed = suite_grid(experiment_ids)
    runner = default_runner()
    if timed:
        runner.run_grid(timed)
    if untimed:
        runner.run_grid(untimed, use_timer=False)


def export_results(experiment_ids: list[str] | None = None,
                   jobs: int = 1, executor: str = "thread") -> dict[str, Any]:
    """Run experiments and collect their tables into one JSON-safe dict.

    ``jobs > 1`` fans the experiments out across the parallel sweep runner
    (:mod:`repro.harness.sweep_runner`); the snapshot is identical to the
    serial one — experiment order is preserved and every cell's measurement
    noise is seeded per-cell, not per-run.
    """
    ids = experiment_ids or list_experiments()
    if jobs > 1:
        from repro.harness.sweep_runner import run_sweep

        return run_sweep(ids, jobs=jobs, executor=executor).snapshot
    if caching_enabled():
        precompile_experiments(ids)
    experiments = {i: experiment_payload(i) for i in ids}
    return {"snapshot_version": SNAPSHOT_VERSION, "experiments": experiments}


def save_results(path: str | Path, experiment_ids: list[str] | None = None,
                 jobs: int = 1, executor: str = "thread") -> None:
    payload = export_results(experiment_ids, jobs=jobs, executor=executor)
    Path(path).write_text(json.dumps(payload, indent=1))


def load_results(path: str | Path) -> dict[str, Any]:
    """Read a snapshot; ``ValueError`` if it is not valid snapshot JSON."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from error
    version = payload.get("snapshot_version") if isinstance(payload, dict) else None
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version!r}")
    return payload


@dataclass(frozen=True)
class CellDifference:
    """One cell that moved between two snapshots."""

    experiment_id: str
    row_label: str
    column: str
    before: Any
    after: Any

    def describe(self) -> str:
        return (f"{self.experiment_id} / {self.row_label} / {self.column}: "
                f"{self.before!r} -> {self.after!r}")


def compare_results(before: dict[str, Any], after: dict[str, Any],
                    rel_tolerance: float = 0.01) -> list[CellDifference]:
    """Cells differing beyond ``rel_tolerance`` (numeric) or at all (other).

    Experiments or rows present in only one snapshot are reported as whole
    differences with the missing side ``None``.
    """
    differences: list[CellDifference] = []
    before_experiments = before["experiments"]
    after_experiments = after["experiments"]
    for experiment_id in sorted(set(before_experiments) | set(after_experiments)):
        left = before_experiments.get(experiment_id)
        right = after_experiments.get(experiment_id)
        if left is None or right is None:
            differences.append(CellDifference(
                experiment_id, "(experiment)", "(presence)",
                "present" if left else None, "present" if right else None))
            continue
        left_rows = {row["label"]: row for row in left["rows"]}
        right_rows = {row["label"]: row for row in right["rows"]}
        for label in sorted(set(left_rows) | set(right_rows)):
            row_before = left_rows.get(label)
            row_after = right_rows.get(label)
            if row_before is None or row_after is None:
                differences.append(CellDifference(
                    experiment_id, label, "(presence)",
                    "present" if row_before else None,
                    "present" if row_after else None))
                continue
            for column in sorted((set(row_before) | set(row_after)) - {"label"}):
                a, b = row_before.get(column), row_after.get(column)
                if not _cells_equal(a, b, rel_tolerance):
                    differences.append(CellDifference(experiment_id, label, column, a, b))
    return differences


def _cells_equal(a: Any, b: Any, rel_tolerance: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            return True
        scale = max(abs(a), abs(b))
        return scale > 0 and abs(a - b) / scale <= rel_tolerance
    return a == b
