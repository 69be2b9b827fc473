"""perfbench: the one benchmark harness for this repository.

Run one workload from the repository root::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 28 --trace 0

The run sets the workload up, measures closed-loop iterations for
``--seconds`` seconds of host time, checks every output, and prints a
report whose last line is one JSON object::

    {"correct": true, "attempted": 18, "failed": 0, "metrics": {...}}

``attempted``/``failed`` count operations: one suite export, one fleet run,
one placement query or one check run.  An operation fails when its output
check fails; one that raises aborts the run without a result.  With
``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``); with
``--trace 1`` the run alternates untraced and traced iterations, reports
the per-layer metrics and writes the spans as a Chrome trace to
``perfbench/out/``.  README.md defines every metric and says which layer
should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters started per run to sample ``setup_s``.
SETUP_SAMPLES = 5
#: Fewest untraced iterations in a run (traced runs: pairs of iterations).
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2

END_TO_END = {
    "iteration_best_s": "s",
    "op_best_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SPECIAL_UNITS = {
    "engine.compile.dedup_ratio": "cells/plan",
    "engine.compile.macs_lowered": "MAC",
    "engine.compile.bytes_lowered": "B",
    "fleet.sim.p99_sojourn_s": "sim_s",
    "fleet.sim.energy_j": "J",
}

_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at ``nproc``; must run before NumPy loads."""
    limit = nproc()
    for variable in _THREAD_VARIABLES:
        current = os.environ.get(variable, "")
        if not current.isdigit() or int(current) > limit:
            os.environ[variable] = str(limit)


def use_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def per_layer_names() -> list[str]:
    import spans
    import workloads

    return (list(spans.SELF_TIME) + list(spans.SETUP_TIME) + list(spans.CALLS)
            + list(spans.FAILED_CALLS) + list(spans.COUNTERS)
            + list(workloads.EXACT_COUNTS) + ["trace_overhead_frac"])


def per_layer_unit(name: str) -> str:
    if name in _SPECIAL_UNITS:
        return _SPECIAL_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("hit_rate", "_frac")) or ".share_" in name:
        return "ratio"
    return "count"


# -- measurement ---------------------------------------------------------------
def setup_sampler(workload: str, seed: int, size: str) -> Callable[[], float]:
    """A function timing one fresh interpreter from spawn to the point
    where it could start its first iteration."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--size", size, "--setup-only"]

    def sample() -> float:
        # The child reports time.monotonic() minus the parent's reading
        # taken just before the spawn (one system-wide clock).
        done = subprocess.run(command + [repr(time.monotonic())], cwd=ROOT,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=170, check=True)
        return float(done.stdout)

    return sample


def run_iterations(workload: Any, seconds: float, trace: bool,
                   sample_setup: Callable[[], float] | None = None) -> dict[str, Any]:
    """Set up once, then iterate for ``seconds``; traced runs alternate.

    Set-up samples, when requested, are spread evenly over the run, so
    that a burst of host contention does not hit all of them.
    """
    import spans

    tracer = spans.Tracer() if trace else None
    null = spans.NullTracer()
    if tracer is not None:
        tracer.install()
    try:
        workload.setup(tracer or null)
    finally:
        if tracer is not None:
            tracer.restore()
    untraced, traced, setup_s = [], [], []
    wanted = SETUP_SAMPLES if sample_setup is not None else 0
    enough = MIN_TRACED_PAIRS if trace else MIN_ITERATIONS
    start = time.perf_counter()
    while len(untraced) < enough or time.perf_counter() - start < seconds:
        if len(setup_s) < wanted and (
                time.perf_counter() - start >= len(setup_s) * seconds / wanted):
            setup_s.append(sample_setup())
        untraced.append(workload.iteration(null))
        if tracer is not None:
            tracer.iteration = len(traced) + 1
            tracer.install()
            try:
                traced.append(workload.iteration(tracer))
            finally:
                tracer.restore()
    while len(setup_s) < wanted:
        setup_s.append(sample_setup())
    return {"tracer": tracer, "untraced": untraced, "traced": traced,
            "setup_s": setup_s}


def check_outputs(iterations: list[Any]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): every op's own check, plus identity
    of each output with the first iteration's output of the same op."""
    reference: dict[str, str] = {}
    attempted = failed = 0
    messages: list[str] = []
    for iteration in iterations:
        for op in iteration.ops:
            attempted += 1
            problems = list(op.failures)
            expected = reference.setdefault(op.key, op.digest)
            if op.digest != expected:
                problems.append(f"{op.key}: output differs from the first iteration")
            if problems:
                failed += 1
                messages.extend(problems)
    return attempted, failed, messages


def mean_counts(iterations: list[Any]) -> dict[str, float]:
    keys = iterations[0].counts
    return {key: statistics.fmean(it.counts[key] for it in iterations)
            for key in keys}


def best_times(iterations: list[Any]) -> tuple[float, float]:
    """Best-case iteration and operation times of a run.

    Returns the sum and the median over distinct operations of each one's
    fastest repetition.  Host contention on a shared VM only ever adds
    time, and it comes in bursts of seconds, so the fastest repetitions
    estimate the program's own cost far more steadily than medians do.
    With one operation per iteration the sum is the fastest iteration;
    on ``place-zoo`` it is a pass made of each model's fastest query.
    """
    best: dict[str, float] = {}
    for iteration in iterations:
        for op in iteration.ops:
            best[op.key] = min(best.get(op.key, op.seconds), op.seconds)
    return sum(best.values()), statistics.median(best.values())


def describe(name: str, value: float, unit: str, samples: list[float]) -> str:
    spread = ""
    if len(samples) > 1:
        spread = (f"  median {statistics.median(samples):.6g}"
                  f"  max {max(samples):.6g}")
    return f"{name:<24} {value:<12.6g} {unit:<6} n={len(samples)}{spread}"


def benchmark(workload: Any, seconds: float, trace: bool,
              sample_setup: Callable[[], float] | None = None) -> dict[str, Any]:
    """Measure one workload; returns the result and the report lines.

    Untraced runs need ``sample_setup`` (see :func:`setup_sampler`).
    """
    measured = run_iterations(workload, seconds, trace, sample_setup)
    untraced, traced = measured["untraced"], measured["traced"]
    setup_samples = measured["setup_s"]
    attempted, failed, messages = check_outputs(untraced + traced)
    iteration_s = [it.seconds for it in untraced]
    op_s = [op.seconds for it in untraced for op in it.ops]
    best_iteration_s, best_op_p50_s = best_times(untraced)
    counts = mean_counts(untraced)
    headline = workload.headline(best_iteration_s, best_op_p50_s,
                                 len(iteration_s), len(op_s))
    lines = [f"{name:<24} {value:<12.6g} {unit:<6} n={n}"
             for name, (value, unit, n) in headline.items()]
    if trace:
        import spans

        metrics = spans.layer_metrics(measured["tracer"],
                                      list(range(1, len(traced) + 1)))
        metrics.update(mean_counts(traced))
        # Each traced iteration runs right after an untraced one, so the
        # pair shares the host's contention level at that moment.
        metrics["trace_overhead_frac"] = statistics.median(
            t.seconds / u.seconds for u, t in zip(untraced, traced)) - 1.0
        values = {name: (metrics[name], per_layer_unit(name))
                  for name in per_layer_names()}
        lines.append(describe("traced iteration_best_s", best_times(traced)[0],
                              "s", [it.seconds for it in traced]))
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured_e2e = {
            "iteration_best_s": (best_iteration_s, iteration_s),
            "op_best_p50_s": (best_op_p50_s, op_s),
            "setup_s": (statistics.median(setup_samples), setup_samples),
            "peak_rss_mb": (peak_rss_mb, [peak_rss_mb]),
        }
        values = {name: (value, END_TO_END[name])
                  for name, (value, _) in measured_e2e.items()}
        lines += [describe(name, value, END_TO_END[name], samples)
                  for name, (value, samples) in measured_e2e.items()]
    lines.append(f"{'ops':<24} {attempted:<12} count")
    lines.append(f"{'ops_failed':<24} {failed:<12} count")
    lines += [f"exact {name} = {value:.10g}" for name, value in counts.items()]
    lines += [f"FAILED {message}" for message in messages[:20]]
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()},
        },
        "lines": lines,
        "samples": {"iteration_s": iteration_s, "op_s": op_s,
                    "traced_iteration_s": [it.seconds for it in traced],
                    "setup_s": setup_samples, "counts": counts},
        "tracer": measured["tracer"],
    }


# -- command line ----------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-cold", "fleet-1m", "place-zoo", "check-all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: a seconds-long smoke size for the self-test")
    parser.add_argument("--setup-only", type=float, metavar="SPAWNED",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        use_sources()
    except FileNotFoundError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    cap_threads()
    # NumPy and repro load only now, after the thread caps are in place.
    import numpy
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size])
    if args.setup_only is not None:
        workload.setup(spans.NullTracer())
        print(repr(time.monotonic() - args.setup_only))
        return 0

    sample_setup = None
    if not args.trace:
        sample_setup = setup_sampler(args.workload, args.seed, args.size)
    measured = benchmark(workload, args.seconds, bool(args.trace), sample_setup)
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": nproc(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "environment": environment,
        "result": measured["result"],
        "samples": measured["samples"],
    }, indent=1) + "\n")
    if measured["tracer"] is not None:
        (OUT / f"{stem}.trace.json").write_text(json.dumps(
            measured["tracer"].chrome_trace(environment), separators=(",", ":")))
    print("perfbench " + " ".join(f"{key}={value}" for key, value in environment.items()))
    print("\n".join(measured["lines"]))
    print(json.dumps(measured["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
