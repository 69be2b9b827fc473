"""Static-check performance: all six passes stay pre-commit cheap.

Not a paper artifact: this guards the "cheap enough to run locally before
every commit" contract in docs/checks.md.  The six passes share one parse
of the package source, and the whole strict run — every zoo graph
re-derived three ways by the shapes pass, the interprocedural effects
fixpoint, all of it — must finish well inside an interactive budget while
reporting zero findings.  Numbers land in ``BENCH_check.json`` at the
repo root so regressions show up in review diffs
(``tools/bench_guard.py`` re-checks the committed file in CI).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.check import PASSES, run_checks

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_check.json"
MAX_TOTAL_S = 10.0


def test_all_six_passes_clean_and_under_budget():
    timings: dict[str, float] = {}
    start = time.perf_counter()
    findings = run_checks(timings=timings)
    total_s = time.perf_counter() - start

    assert sorted(timings) == sorted([*PASSES, "parse"])
    assert findings == [], [str(finding) for finding in findings]
    assert total_s < MAX_TOTAL_S, (
        f"six-pass check took {total_s:.2f}s >= {MAX_TOTAL_S}s budget")

    bench = {
        "benchmark": "check six-pass static verification",
        "passes": list(PASSES),
        "per_pass_s": {name: round(seconds, 4)
                       for name, seconds in timings.items()},
        "total_s": round(total_s, 4),
        "findings": len(findings),
        "strict_clean": not findings,
        "max_total_s": MAX_TOTAL_S,
    }
    BENCH_PATH.write_text(json.dumps(bench, indent=1) + "\n")
