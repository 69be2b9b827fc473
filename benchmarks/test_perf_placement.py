"""Placement-optimizer performance: full-zoo search and pipelined serving.

Not a paper artifact: this guards the two perf contracts of the
Deployment refactor.  First, `search_placements` prices every shape —
single nodes via one ``run_grid`` sweep; every split cut of a device pair
as float64 columns (``cut_columns``: an edge prefix, a link transfer and
a remote suffix per cut, read from each device's one runner session and
the graph's crossing sizes), lowering only the best and the all-remote
cut; pipelines via the partitioning DP, evaluated as blocked NumPy
tables — so searching the ENTIRE model zoo
against the full edge fleet plus a cloud GPU must stay interactive
(seconds, not minutes).  Second, pipelined
deployment pools are served by chained per-stage Lindley scans, the same
array-work contract as single-node pools, so a million requests through
a pipelined fleet must finish inside the fleet simulator's own budget.
Numbers land in ``BENCH_placement.json`` at the repo root so regressions
show up in review diffs (``tools/bench_guard.py`` re-checks the
committed file in CI).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.distribution import lower_pipeline
from repro.fleet import FleetSimulation, PoolSpec
from repro.models import list_models
from repro.placement import search_placements
from repro.runtime import Scenario, default_runner
from repro.workloads.arrivals import PoissonArrivals, first_n, reseeded

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_placement.json"
PIPELINE_REQUESTS = 1_000_000
MAX_SEARCH_S = 15.0
MAX_PIPELINE_SIMULATE_S = 5.0
SEED = 7


def test_placement_search_and_pipelined_serving_under_budget():
    runner = default_runner()
    models = list_models()

    # -- full-zoo search: every model, full edge fleet + one cloud GPU.
    start = time.perf_counter()
    frontiers = [search_placements(model, remote_devices=("GTX Titan X",),
                                   runner=runner)
                 for model in models]
    search_s = time.perf_counter() - start

    candidates = sum(len(frontier.candidates) for frontier in frontiers)
    frontier_size = sum(len(frontier.frontier) for frontier in frontiers)
    for frontier in frontiers:
        assert frontier.frontier, f"empty frontier for {frontier.model}"
    assert search_s < MAX_SEARCH_S, (
        f"searched {len(models)} models in {search_s:.2f}s "
        f">= {MAX_SEARCH_S}s budget")

    # Determinism: the search is a pure function of its inputs.
    repeat = search_placements(models[0], remote_devices=("GTX Titan X",),
                               runner=runner)
    search_deterministic = repeat.to_dict() == frontiers[0].to_dict()
    assert search_deterministic, "same-input searches differ"

    # -- pipelined serving at fleet scale.
    chain = (Scenario("MobileNet-v2", "Jetson Nano", "TensorRT"),) * 2
    deployment = lower_pipeline(chain, "lan", runner=runner)
    pool = PoolSpec.from_deployment("nano-pipe", deployment, replicas=8)
    simulation = FleetSimulation([pool], epochs=1024, runner=runner)
    rate_hz = 0.7 * simulation.capacity_rps
    arrival_times = first_n(reseeded(PoissonArrivals(rate_hz=rate_hz), SEED),
                            PIPELINE_REQUESTS)

    start = time.perf_counter()
    stats = simulation.run(arrival_times, seed=SEED)
    pipeline_simulate_s = time.perf_counter() - start

    assert stats.completed + stats.dropped + stats.rejected == PIPELINE_REQUESTS
    assert pipeline_simulate_s < MAX_PIPELINE_SIMULATE_S, (
        f"simulated {PIPELINE_REQUESTS} pipelined requests in "
        f"{pipeline_simulate_s:.2f}s >= {MAX_PIPELINE_SIMULATE_S}s budget")

    repeat_stats = simulation.run(arrival_times, seed=SEED)
    serving_deterministic = stats.to_json() == repeat_stats.to_json()
    assert serving_deterministic, "same-seed pipelined reports differ"

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "placement full-zoo search + pipelined 1M-request serving",
        "models": len(models),
        "remote_devices": ["GTX Titan X"],
        "search_s": round(search_s, 4),
        "candidates": candidates,
        "frontier_size": frontier_size,
        "pipeline_deployment": deployment.key,
        "pipeline_requests": PIPELINE_REQUESTS,
        "pipeline_simulate_s": round(pipeline_simulate_s, 4),
        "pipeline_completed": stats.completed,
        "pipeline_dropped": stats.dropped,
        "pipeline_rejected": stats.rejected,
        "max_search_s": MAX_SEARCH_S,
        "max_pipeline_simulate_s": MAX_PIPELINE_SIMULATE_S,
        "search_deterministic": search_deterministic,
        "serving_deterministic": serving_deterministic,
    }, indent=1) + "\n")
