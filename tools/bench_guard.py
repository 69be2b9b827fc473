#!/usr/bin/env python
"""Bench-regression guard: hold the committed BENCH_*.json to their targets.

CI runs the perf benchmarks (which rewrite ``BENCH_sweep.json``,
``BENCH_fleet.json`` and ``BENCH_placement.json``) and then this guard,
so a perf regression fails the job with the specific budget it broke
instead of a bare assert.  It can also be pointed at committed files
locally::

    python tools/bench_guard.py                       # all repo-root files
    python tools/bench_guard.py BENCH_fleet.json      # explicit snapshots

Sweep checks (targets travel inside the file, written by the benchmark):

* ``speedup_warm``        >= ``min_warm_speedup``
* ``compiled_warm_s``     <  ``max_compiled_warm_s``
* ``compiled_uncached_s`` <  ``max_compiled_uncached_s``
* ``dedup_ratio``         >  1.0 and snapshots identical at zero tolerance

Fleet checks:

* ``requests``    >= ``min_requests`` (the million-request scale floor)
* ``simulate_s``  <  ``max_simulate_s`` (< 5 s per million requests)
* ``completed + dropped + rejected == requests`` (conservation)
* ``identical_across_seed_repeat`` is true (byte-identical reports)

Placement checks:

* ``search_s``            <  ``max_search_s`` (full-zoo search stays interactive)
* ``pipeline_simulate_s`` <  ``max_pipeline_simulate_s``
* ``pipeline_requests``   at the million-request scale with conservation
* ``search_deterministic`` and ``serving_deterministic`` are true

Check checks (the five-pass static verification run):

* ``total_s``       <  ``max_total_s`` (pre-commit cheap, all five passes)
* ``findings``      == 0 and ``strict_clean`` is true (zero-findings gate)
* ``per_pass_s``    covers every pass named in ``passes``
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_PATHS = (_ROOT / "BENCH_sweep.json", _ROOT / "BENCH_fleet.json",
                 _ROOT / "BENCH_placement.json", _ROOT / "BENCH_check.json")


def _require(bench: dict, failures: list[str], name: str, hint: str):
    value = bench.get(name)
    if value is None:
        failures.append(f"missing field {name!r} - regenerate the "
                        f"benchmark (pytest {hint})")
    return value


def check_sweep(bench: dict) -> list[str]:
    """Every broken sweep budget as a human-readable failure line."""
    failures: list[str] = []
    hint = "benchmarks/test_perf_sweep.py"

    speedup = _require(bench, failures, "speedup_warm", hint)
    floor = _require(bench, failures, "min_warm_speedup", hint)
    if speedup is not None and floor is not None and speedup < floor:
        failures.append(f"speedup_warm {speedup}x < required {floor}x")

    warm = _require(bench, failures, "compiled_warm_s", hint)
    warm_max = _require(bench, failures, "max_compiled_warm_s", hint)
    if warm is not None and warm_max is not None and warm >= warm_max:
        failures.append(f"compiled_warm_s {warm}s >= budget {warm_max}s")

    uncached = _require(bench, failures, "compiled_uncached_s", hint)
    uncached_max = _require(bench, failures, "max_compiled_uncached_s", hint)
    if uncached is not None and uncached_max is not None and uncached >= uncached_max:
        failures.append(
            f"compiled_uncached_s {uncached}s >= budget {uncached_max}s")

    dedup = _require(bench, failures, "dedup_ratio", hint)
    if dedup is not None and dedup <= 1.0:
        failures.append(f"dedup_ratio {dedup} <= 1.0 - the sweep compiler "
                        "is not batching anything")

    if bench.get("identical_at_zero_tolerance") is not True:
        failures.append("snapshots were not identical at zero tolerance")
    return failures


def check_fleet(bench: dict) -> list[str]:
    """Every broken fleet budget as a human-readable failure line."""
    failures: list[str] = []
    hint = "benchmarks/test_perf_fleet.py"

    requests = _require(bench, failures, "requests", hint)
    floor = _require(bench, failures, "min_requests", hint)
    if requests is not None and floor is not None and requests < floor:
        failures.append(f"requests {requests} < required {floor} - the "
                        "benchmark is not exercising fleet scale")

    simulate_s = _require(bench, failures, "simulate_s", hint)
    budget_s = _require(bench, failures, "max_simulate_s", hint)
    if simulate_s is not None and budget_s is not None and simulate_s >= budget_s:
        failures.append(f"simulate_s {simulate_s}s >= budget {budget_s}s "
                        f"for {requests} requests")

    served = (bench.get("completed"), bench.get("dropped"), bench.get("rejected"))
    if requests is not None and None not in served and sum(served) != requests:
        failures.append(f"conservation broken: completed+dropped+rejected "
                        f"{sum(served)} != requests {requests}")

    if bench.get("identical_across_seed_repeat") is not True:
        failures.append("same-seed fleet reports were not byte-identical")
    return failures


def check_placement(bench: dict) -> list[str]:
    """Every broken placement budget as a human-readable failure line."""
    failures: list[str] = []
    hint = "benchmarks/test_perf_placement.py"

    search_s = _require(bench, failures, "search_s", hint)
    search_max = _require(bench, failures, "max_search_s", hint)
    if search_s is not None and search_max is not None and search_s >= search_max:
        models = bench.get("models")
        failures.append(f"search_s {search_s}s >= budget {search_max}s "
                        f"for {models} models")

    simulate_s = _require(bench, failures, "pipeline_simulate_s", hint)
    budget_s = _require(bench, failures, "max_pipeline_simulate_s", hint)
    if simulate_s is not None and budget_s is not None and simulate_s >= budget_s:
        failures.append(f"pipeline_simulate_s {simulate_s}s >= budget "
                        f"{budget_s}s")

    requests = _require(bench, failures, "pipeline_requests", hint)
    served = (bench.get("pipeline_completed"), bench.get("pipeline_dropped"),
              bench.get("pipeline_rejected"))
    if requests is not None and None not in served and sum(served) != requests:
        failures.append(f"conservation broken: completed+dropped+rejected "
                        f"{sum(served)} != requests {requests}")

    frontier_size = _require(bench, failures, "frontier_size", hint)
    if frontier_size is not None and frontier_size <= 0:
        failures.append("frontier_size is 0 - the search found nothing")

    if bench.get("search_deterministic") is not True:
        failures.append("placement searches were not deterministic")
    if bench.get("serving_deterministic") is not True:
        failures.append("same-seed pipelined reports were not byte-identical")
    return failures


def check_check(bench: dict) -> list[str]:
    """Every broken static-check budget as a human-readable failure line."""
    failures: list[str] = []
    hint = "benchmarks/test_perf_check.py"

    total_s = _require(bench, failures, "total_s", hint)
    budget_s = _require(bench, failures, "max_total_s", hint)
    if total_s is not None and budget_s is not None and total_s >= budget_s:
        failures.append(f"total_s {total_s}s >= budget {budget_s}s - "
                        "the five-pass run is no longer pre-commit cheap")

    findings = _require(bench, failures, "findings", hint)
    if findings:
        failures.append(f"{findings} findings - the strict run must be clean")
    if bench.get("strict_clean") is not True:
        failures.append("strict_clean is not true")

    passes = _require(bench, failures, "passes", hint)
    per_pass = _require(bench, failures, "per_pass_s", hint)
    if passes is not None and per_pass is not None:
        missing = sorted(set(passes) - set(per_pass))
        if missing:
            failures.append(f"per_pass_s missing timings for {missing}")
    return failures


def check(bench: dict) -> list[str]:
    """Dispatch on the benchmark kind recorded in the file."""
    kind = str(bench.get("benchmark", ""))
    if kind.startswith("fleet"):
        return check_fleet(bench)
    if kind.startswith("placement"):
        return check_placement(bench)
    if kind.startswith("check"):
        return check_check(bench)
    return check_sweep(bench)


def _summary(bench: dict) -> str:
    kind = str(bench.get("benchmark", ""))
    if kind.startswith("fleet"):
        return (f"{bench['requests']} requests in {bench['simulate_s']}s "
                f"({bench['requests_per_wall_s']}/wall-s), deterministic")
    if kind.startswith("placement"):
        return (f"{bench['models']}-model zoo searched in "
                f"{bench['search_s']}s ({bench['frontier_size']} frontier "
                f"points), {bench['pipeline_requests']} pipelined requests "
                f"in {bench['pipeline_simulate_s']}s")
    if kind.startswith("check"):
        return (f"{len(bench['passes'])} passes in {bench['total_s']}s, "
                f"{bench['findings']} findings")
    return (f"warm {bench['compiled_warm_s']}s, "
            f"uncached {bench['compiled_uncached_s']}s, "
            f"{bench['speedup_warm']}x warm speedup, "
            f"{bench['dedup_ratio']}x dedup")


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv[1:]] or list(DEFAULT_PATHS)
    status = 0
    for path in paths:
        try:
            bench = json.loads(path.read_text())
        except FileNotFoundError:
            print(f"bench guard: {path} not found", file=sys.stderr)
            status = max(status, 2)
            continue
        except json.JSONDecodeError as error:
            print(f"bench guard: {path} is not valid JSON: {error}",
                  file=sys.stderr)
            status = max(status, 2)
            continue
        failures = check(bench)
        if failures:
            for line in failures:
                print(f"bench guard: {path.name}: {line}", file=sys.stderr)
            status = max(status, 1)
        else:
            print(f"bench guard: {path.name} ok - {_summary(bench)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
