"""Command-line interface.

Usage::

    python -m repro list                      # experiments, models, devices
    python -m repro run fig07 fig08           # regenerate specific artifacts
    python -m repro run --all                 # the whole paper
    python -m repro time ResNet-18 "Jetson Nano" TensorRT --batch 4
    python -m repro compat                    # Table V matrix
    python -m repro suite --jobs 4 --stats    # parallel sweep + cache stats
    python -m repro fleet --requests 1000000  # million-request fleet sim
    python -m repro place MobileNet-v2 --link lan --min-rps 2
    python -m repro fleet --placement frontier.json --requests 10000
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from repro import (
    ReproError,
    list_devices,
    list_experiments,
    list_frameworks,
    list_models,
    load_model,
    render_table,
    run_experiment,
)
from repro.runtime import Scenario, default_runner
from repro.core.summation import serial_sum


def _write_output(path: str, text: str) -> bool:
    """Write a verb's ``--output`` file; False after printing the error."""
    from pathlib import Path

    try:
        Path(path).write_text(text)
    except OSError as error:
        print(f"error: cannot write {path}: {error.strerror or error}",
              file=sys.stderr)
        return False
    return True


def _counts_ok(*flags: tuple[str, int | None]) -> bool:
    """True when every given count flag is unset or >= 1; False after
    printing the first offender's error."""
    for flag, value in flags:
        if value is not None and value < 1:
            print(f"error: {flag} must be >= 1, got {value}", file=sys.stderr)
            return False
    return True


def _cmd_list(_args: argparse.Namespace) -> int:
    print("Experiments:")
    for experiment_id in list_experiments():
        print(f"  {experiment_id}")
    print("\nModels:")
    for name in list_models():
        print(f"  {name}")
    print("\nDevices:")
    for name in list_devices():
        print(f"  {name}")
    print("\nFrameworks:")
    for name in list_frameworks():
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.report import render_csv, render_markdown

    renderers = {"table": render_table, "markdown": render_markdown, "csv": render_csv}
    render = renderers[args.format]
    experiment_ids = list_experiments() if args.all else args.experiments
    if not experiment_ids:
        print("nothing to run: pass experiment ids or --all", file=sys.stderr)
        return 2
    for experiment_id in experiment_ids:
        try:
            table = run_experiment(experiment_id)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(render(table))
        if args.chart:
            from repro.harness.charts import bar_chart

            if args.chart not in table.columns:
                print(f"error: no column {args.chart!r} to chart", file=sys.stderr)
                return 2
            print()
            print(bar_chart(table, args.chart))
        print()
    return 0


def _cmd_time(args: argparse.Namespace) -> int:
    if not _counts_ok(("--batch", args.batch), ("--runs", args.runs)):
        return 2
    scenario = Scenario(
        args.model, args.device, args.framework,
        dtype=args.dtype, batch_size=args.batch,
        power_mode=args.power_mode, containerized=args.container,
    )
    runner = default_runner()
    record = runner.run(scenario, use_timer=not args.no_timer, n_runs=args.runs)
    if record.failed:
        if record.failure.kind == "unknown_entry":
            # A misspelt name is a usage error, not a Table V outcome.
            print(f"error: {record.failure.message}", file=sys.stderr)
            return 2
        print(f"deployment failed: {record.failure.message} "
              f"[{record.failure.kind}]", file=sys.stderr)
        return 1
    session = runner.session(scenario)
    print(session.describe())
    if record.stats is not None:
        stats = record.stats
        print(f"timed:  {stats.median_s * 1e3:.2f} ms/inference median over "
              f"{stats.samples} runs (sd {stats.stddev_s * 1e3:.3f} ms, "
              f"seed 0x{record.provenance.seed:08x})")
    print(f"power:  {record.power_w:.2f} W at {record.utilization:.0%} utilization; "
          f"init {record.init_time_s:.2f} s; "
          f"deploy cache {record.provenance.deploy_cache}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import (
        Severity,
        render_github,
        render_json,
        render_text,
        rule_catalog,
        run_checks,
    )

    if args.list_rules:
        catalog = rule_catalog()
        if args.format == "json":
            payload = {rule: {"severity": severity.value,
                              "description": description}
                       for rule, (severity, description) in catalog.items()}
            print(json.dumps({"version": 1, "rules": payload}, indent=1))
        else:
            for rule, (severity, description) in catalog.items():
                print(f"{severity.value:7s} {rule:9s} {description}")
        return 0

    timings: dict[str, float] = {}
    started = time.perf_counter()
    try:
        findings = run_checks(passes=args.passes or None, ignore=args.ignore or (),
                              timings=timings)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    wall_s = time.perf_counter() - started
    renderers = {"text": render_text, "json": render_json, "github": render_github}
    print(renderers[args.format](findings))
    if args.stats:
        for name, elapsed_s in timings.items():
            print(f"# {name}: {elapsed_s * 1e3:.1f} ms", file=sys.stderr)
        # the halves overlap, so the total can exceed the wall time
        print(f"# total: {serial_sum(timings.values()) * 1e3:.1f} ms", file=sys.stderr)
        print(f"# wall: {wall_s * 1e3:.1f} ms", file=sys.stderr)
    if args.strict:
        return 0 if not findings else 1
    errors = sum(1 for finding in findings if finding.severity is Severity.ERROR)
    return 0 if errors == 0 else 1


def _cmd_compat(_args: argparse.Namespace) -> int:
    table = run_experiment("table5")
    print(render_table(table))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validation import validate_claims

    try:
        results = validate_claims(args.claims or None)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        print(f"[{status}] {result.claim_id} (Sec. {result.section}): "
              f"{result.statement}")
        print(f"       {result.evidence}")
    print(f"\n{len(results) - failures}/{len(results)} claims hold")
    return 0 if failures == 0 else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    import json

    from repro.engine.cache import cache_stats, set_caching
    from repro.harness.sweep_runner import run_sweep

    if not _counts_ok(("--jobs", args.jobs)):
        return 2
    if args.no_cache:
        set_caching(False)
    try:
        result = run_sweep(args.experiments or None, jobs=args.jobs,
                           executor=args.executor)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if args.no_cache:
            set_caching(True)
    print(result.describe())
    if args.stats:
        print("\ncache statistics (this process):")
        for name, stats in cache_stats().items():
            print(f"  {name:7s} entries={stats['entries']:4d} "
                  f"hits={stats['hits']:5d} misses={stats['misses']:5d} "
                  f"hit_rate={stats['hit_rate']:.1%}")
        if args.executor == "process" and args.jobs > 1:
            print("  (process workers keep their own caches; "
                  "worker-side hits are not visible here)")
        from repro.engine.compile import compile_stats

        compiled = compile_stats()
        print("\nsweep compiler statistics (this process):")
        print(f"  grids={compiled['grids']} cells={compiled['cells']} "
              f"deploys={compiled['unique_deploys']} "
              f"plans={compiled['unique_plans']} "
              f"plan_hits={compiled['plan_cache_hits']} "
              f"dedup_ratio={compiled['dedup_ratio']:.2f}")
        print(f"  array_programs={compiled['array_programs']} "
              f"ops={compiled['ops_lowered']} "
              f"macs={compiled['macs_lowered']:.3g} "
              f"bytes={compiled['bytes_lowered']:.3g}")
        print(f"  gather={compiled['gather_s'] * 1e3:.1f}ms "
              f"lower={compiled['lower_s'] * 1e3:.1f}ms "
              f"scatter={compiled['scatter_s'] * 1e3:.1f}ms "
              f"timer={compiled['timer_s'] * 1e3:.1f}ms")
    if args.output:
        if not _write_output(args.output, json.dumps(result.snapshot, indent=1)):
            return 2
        print(f"\nwrote {args.output}")
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    import json

    from repro.placement import SLO, search_placements

    if not _counts_ok(("--max-depth", args.max_depth)):
        return 2
    slo = None
    try:
        if (args.deadline_ms is not None or args.min_rps is not None
                or args.energy_j is not None):
            slo = SLO(
                deadline_s=None if args.deadline_ms is None else args.deadline_ms / 1e3,
                min_throughput_rps=args.min_rps,
                max_energy_j=args.energy_j,
            )
        frontier = search_placements(
            args.model,
            edge_devices=args.device or None,
            remote_devices=tuple(args.remote or ()),
            link=args.link,
            slo=slo,
            max_pipeline_depth=args.max_depth,
        )
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    text = (json.dumps(frontier.to_dict(), indent=1)
            if args.format == "json" else frontier.describe())
    if args.output:
        if not _write_output(args.output, text + "\n"):
            return 2
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0 if frontier.frontier else 1


_DEFAULT_FLEET_POOLS = (
    "8x Jetson Nano:TensorRT:8",
    "4x Jetson TX2:PyTorch:4",
    "2x Raspberry Pi 3B:TFLite",
)


def _parse_pool_spec(spec: str, model: str, index: int) -> "PoolSpec":
    import re

    from repro.fleet import PoolSpec

    match = re.match(r"^\s*(\d+)\s*x\s*(.+)$", spec)
    if not match:
        raise ValueError(
            f"bad pool spec {spec!r}; expected 'COUNTx DEVICE:FRAMEWORK[:MAX_BATCH]'")
    replicas = int(match.group(1))
    parts = [part.strip() for part in match.group(2).split(":")]
    if len(parts) == 2:
        device, framework = parts
        max_batch = 1
    elif len(parts) == 3:
        device, framework = parts[:2]
        max_batch = int(parts[2])
    else:
        raise ValueError(
            f"bad pool spec {spec!r}; expected 'COUNTx DEVICE:FRAMEWORK[:MAX_BATCH]'")
    return PoolSpec(name=f"{index}:{device}", replicas=replicas,
                    scenario=Scenario(model, device, framework),
                    max_batch=max_batch)


def _placement_pool(path: str, replicas: int) -> "PoolSpec":
    """Build the serving pool from a ``repro place`` frontier file.

    Takes the best (lowest-latency) frontier point — the one
    :meth:`PlacementFrontier.best` would return.
    """
    import json
    from pathlib import Path

    from repro.fleet import PoolSpec
    from repro.placement import Deployment

    payload = json.loads(Path(path).read_text())
    frontier = payload.get("frontier", []) if isinstance(payload, dict) else None
    if not isinstance(frontier, list):
        raise ValueError(f"{path}: not a 'repro place' frontier file (expected "
                         "a JSON object with a 'frontier' list)")
    if not frontier:
        raise ValueError(
            f"{path}: no frontier points (was the SLO satisfiable?); "
            "regenerate with 'repro place ... --format json --output'")
    try:
        deployment = Deployment.from_dict(frontier[0]["deployment"])
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ValueError(f"{path}: malformed frontier point "
                         f"({type(error).__name__}: {error})") from error
    return PoolSpec.from_deployment(
        name=f"placement:{'+'.join(deployment.devices)}",
        deployment=deployment, replicas=replicas)


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import AdmissionControl, Autoscaler, FleetSimulation
    from repro.workloads.arrivals import (
        BurstyArrivals,
        DiurnalArrivals,
        PeriodicArrivals,
        PoissonArrivals,
        first_n,
        reseeded,
    )

    if args.requests is None and args.horizon is None:
        print("error: pass --requests or --horizon", file=sys.stderr)
        return 2
    if args.requests is not None and args.horizon is not None:
        print("error: pass --requests or --horizon, not both", file=sys.stderr)
        return 2
    if args.placement and args.pool:
        print("error: pass --placement or --pool, not both", file=sys.stderr)
        return 2
    if not _counts_ok(("--burst-size", args.burst_size)):
        return 2
    try:
        if args.placement:
            pools = [_placement_pool(args.placement, args.replicas)]
        else:
            pools = [_parse_pool_spec(spec, args.model, index)
                     for index, spec in enumerate(args.pool or _DEFAULT_FLEET_POOLS)]
        autoscaler = Autoscaler() if args.autoscale else None
        admission = (AdmissionControl(max_queue_per_node=args.admit_limit)
                     if args.admit_limit is not None else None)
        simulation = FleetSimulation(pools, router=args.policy,
                                     autoscaler=autoscaler,
                                     admission=admission, epochs=args.epochs)
        # Default load: 70% of the fleet's peak service rate — busy but stable.
        rate_hz = (args.rate if args.rate is not None
                   else 0.7 * simulation.capacity_rps)
        # The span and the burst rate divide by the rate and the burst
        # size (checked above); the processes check everything else.
        if not rate_hz > 0:
            raise ValueError(f"--rate must be positive, got {rate_hz}")
        span_s = (args.horizon if args.horizon is not None
                  else args.requests / rate_hz)
        processes = {
            "poisson": lambda: PoissonArrivals(rate_hz=rate_hz),
            "periodic": lambda: PeriodicArrivals(rate_hz=rate_hz,
                                                 jitter_fraction=0.5),
            "bursty": lambda: BurstyArrivals(
                burst_rate_hz=rate_hz / args.burst_size,
                burst_size=args.burst_size),
            "diurnal": lambda: DiurnalArrivals(
                base_rate_hz=rate_hz,
                period_s=(args.period if args.period is not None
                          else span_s / 2)),
        }
        process = reseeded(processes[args.arrivals](), args.seed)
        if args.requests is not None:
            arrival_times = first_n(process, args.requests)
        else:
            arrival_times = process.generate(args.horizon)
    except (ReproError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = simulation.run(arrival_times, seed=args.seed)
    text = (json.dumps(stats.to_dict(), indent=1) if args.format == "json"
            else stats.describe())
    if args.output:
        if not _write_output(args.output, text + "\n"):
            return 2
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.harness.suite import export_results

    if not _counts_ok(("--jobs", args.jobs)):
        return 2
    try:
        payload = export_results(args.experiments or None,
                                 jobs=args.jobs, executor=args.executor)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not _write_output(args.path, json.dumps(payload, indent=1)):
        return 2
    print(f"wrote {args.path}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.harness.suite import compare_results, load_results

    try:
        before = load_results(args.before)
        after = load_results(args.after)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    differences = compare_results(before, after, rel_tolerance=args.tolerance)
    for difference in differences:
        print(difference.describe())
    print(f"{len(differences)} differing cells "
          f"(tolerance {args.tolerance:.1%})")
    return 0 if not differences else 1


def _cmd_calibration(_args: argparse.Namespace) -> int:
    from repro.engine.calibration import calibration_report

    print(f"{'framework':11s} {'device':17s} {'anchor model':16s} "
          f"{'target':>10s} {'achieved':>10s} {'scale':>8s}  source")
    for entry in calibration_report():
        print(f"{entry['framework']:11s} {entry['device']:17s} "
              f"{entry['model']:16s} {entry['target_s'] * 1e3:8.1f}ms "
              f"{entry['achieved_s'] * 1e3:8.1f}ms {entry['scale']:8.3f}  "
              f"{entry['source']}")
    clamped = sum(1 for entry in calibration_report() if entry["clamped"])
    print(f"\n{clamped} clamped anchors")
    return 0 if clamped == 0 else 1


def _cmd_summary(args: argparse.Namespace) -> int:
    try:
        graph = load_model(args.model)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(graph.summary(verbose=True))
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.analysis import Requirements, recommend_deployments

    if not _counts_ok(("--top", args.top)):
        return 2
    try:
        requirements = Requirements(
            deadline_s=None if args.deadline_ms is None else args.deadline_ms / 1e3,
            power_budget_w=args.power_w,
            energy_budget_j=None if args.energy_mj is None else args.energy_mj / 1e3,
        )
        results = recommend_deployments(args.model, requirements)
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for recommendation in results[: args.top]:
        print(recommendation.describe())
    feasible = sum(1 for r in results if r.feasible)
    print(f"\n{feasible}/{len(results)} deployable configurations satisfy "
          "the constraints")
    return 0 if feasible else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'Characterizing the Deployment "
        "of Deep Neural Networks on Commercial Edge Devices' (IISWC 2019).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list experiments/models/devices")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = subparsers.add_parser("run", help="regenerate paper artifacts")
    run_parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. fig07)")
    run_parser.add_argument("--all", action="store_true", help="run every experiment")
    run_parser.add_argument("--format", choices=("table", "markdown", "csv"),
                            default="table", help="output format")
    run_parser.add_argument("--chart", metavar="COLUMN",
                            help="also render an ASCII bar chart of COLUMN")
    run_parser.set_defaults(handler=_cmd_run)

    time_parser = subparsers.add_parser("time", help="time one deployment")
    time_parser.add_argument("model")
    time_parser.add_argument("device")
    time_parser.add_argument("framework")
    time_parser.add_argument("--dtype", choices=("fp32", "fp16", "int8", "binary"),
                             default=None, help="deployment datatype")
    time_parser.add_argument("--batch", type=int, default=1,
                             help="batch size (default 1, the edge regime)")
    time_parser.add_argument("--power-mode", default="default",
                             help="DVFS operating point (e.g. MAXN)")
    time_parser.add_argument("--container", action="store_true",
                             help="run inside the Docker profile (Sec. VI-D)")
    time_parser.add_argument("--runs", type=int, default=None,
                             help="timing-loop length (default: paper policy)")
    time_parser.add_argument("--no-timer", action="store_true",
                             help="print the noise-free plan latency only")
    time_parser.set_defaults(handler=_cmd_time)

    check_parser = subparsers.add_parser(
        "check", help="static verification: graph IR and shapes, data "
                      "tables, architecture, units, effects")
    check_parser.add_argument("passes", nargs="*", metavar="PASS",
                              help="passes to run: graphs, tables, arch, "
                                   "units, effects (default: all)")
    check_parser.add_argument("--strict", action="store_true",
                              help="fail on any finding, not just errors")
    check_parser.add_argument("--stats", action="store_true",
                              help="print per-pass and shared-parse wall "
                                   "times to stderr")
    check_parser.add_argument("--list-rules", action="store_true",
                              help="print the rule catalog (honors --format "
                                   "json) and exit")
    check_parser.add_argument("--format", choices=("text", "json", "github"),
                              default="text",
                              help="report format (github emits workflow "
                                   "annotations)")
    check_parser.add_argument("--ignore", action="append", metavar="RULE",
                              help="suppress a rule id (repeatable, e.g. IR008)")
    check_parser.set_defaults(handler=_cmd_check)

    compat_parser = subparsers.add_parser("compat", help="print the Table V matrix")
    compat_parser.set_defaults(handler=_cmd_compat)

    validate_parser = subparsers.add_parser(
        "validate", help="check the paper's headline claims against the simulation")
    validate_parser.add_argument("claims", nargs="*", help="claim ids (default: all)")
    validate_parser.set_defaults(handler=_cmd_validate)

    export_parser = subparsers.add_parser(
        "export", help="snapshot experiment results to a JSON file")
    export_parser.add_argument("path", help="output file")
    export_parser.add_argument("experiments", nargs="*",
                               help="experiment ids (default: all)")
    export_parser.add_argument("--jobs", type=int, default=1,
                               help="worker count (default 1 = serial)")
    export_parser.add_argument("--executor", choices=("thread", "process"),
                               default="thread",
                               help="pool flavour for --jobs > 1")
    export_parser.set_defaults(handler=_cmd_export)

    suite_parser = subparsers.add_parser(
        "suite", help="run the experiment suite through the sweep runner")
    suite_parser.add_argument("experiments", nargs="*",
                              help="experiment ids (default: all)")
    suite_parser.add_argument("--jobs", type=int, default=1,
                              help="worker count (default 1 = serial)")
    suite_parser.add_argument("--executor", choices=("thread", "process"),
                              default="thread",
                              help="pool flavour for --jobs > 1")
    suite_parser.add_argument("--stats", action="store_true",
                              help="print memoization and sweep-compiler "
                                   "statistics")
    suite_parser.add_argument("--output", metavar="PATH",
                              help="also write the snapshot JSON to PATH")
    suite_parser.add_argument("--no-cache", action="store_true",
                              help="bypass the engine memoization layer")
    suite_parser.set_defaults(handler=_cmd_suite)

    calibration_parser = subparsers.add_parser(
        "calibration", help="show the anchor-calibration fit report")
    calibration_parser.set_defaults(handler=_cmd_calibration)

    summary_parser = subparsers.add_parser(
        "summary", help="print a model's per-layer summary")
    summary_parser.add_argument("model")
    summary_parser.set_defaults(handler=_cmd_summary)

    recommend_parser = subparsers.add_parser(
        "recommend", help="find the best deployment for a model under constraints")
    recommend_parser.add_argument("model")
    recommend_parser.add_argument("--deadline-ms", type=float, default=None)
    recommend_parser.add_argument("--power-w", type=float, default=None)
    recommend_parser.add_argument("--energy-mj", type=float, default=None)
    recommend_parser.add_argument("--top", type=int, default=10,
                                  help="rows to print (default 10)")
    recommend_parser.set_defaults(handler=_cmd_recommend)

    place_parser = subparsers.add_parser(
        "place", help="search single-node/split/pipeline placements and "
                      "print the Pareto frontier")
    place_parser.add_argument("model")
    place_parser.add_argument("--device", action="append", metavar="NAME",
                              help="edge device that may host the input "
                                   "stage (repeatable; default: every edge "
                                   "platform)")
    place_parser.add_argument("--remote", action="append", metavar="NAME",
                              help="offload-only remote endpoint, e.g. "
                                   "'GTX Titan X' (repeatable)")
    place_parser.add_argument("--link", default="wifi",
                              help="network link preset: wifi, lte, 5g, "
                                   "lan, loopback (default wifi)")
    place_parser.add_argument("--deadline-ms", type=float, default=None,
                              help="SLO: end-to-end latency bound")
    place_parser.add_argument("--min-rps", type=float, default=None,
                              help="SLO: steady-state inferences per second")
    place_parser.add_argument("--energy-j", type=float, default=None,
                              help="SLO: joules per inference budget")
    place_parser.add_argument("--max-depth", type=int, default=3,
                              help="deepest homogeneous pipeline (default 3)")
    place_parser.add_argument("--format", choices=("text", "json"),
                              default="text", help="output format")
    place_parser.add_argument("--output", metavar="PATH",
                              help="write the frontier to PATH (feed the "
                                   "JSON form to 'fleet --placement')")
    place_parser.set_defaults(handler=_cmd_place)

    fleet_parser = subparsers.add_parser(
        "fleet", help="simulate a heterogeneous serving fleet")
    fleet_parser.add_argument("--model", default="ResNet-18",
                              help="model every pool serves")
    fleet_parser.add_argument("--pool", action="append", metavar="SPEC",
                              help="pool spec 'COUNTx DEVICE:FRAMEWORK"
                                   "[:MAX_BATCH]' (repeatable; default: "
                                   "8x Nano + 4x TX2 + 2x Pi 3B)")
    fleet_parser.add_argument("--placement", metavar="PATH",
                              help="serve the best frontier point from a "
                                   "'repro place --format json' file "
                                   "instead of --pool specs")
    fleet_parser.add_argument("--replicas", type=int, default=2,
                              help="replica chains for --placement "
                                   "(default 2)")
    fleet_parser.add_argument("--requests", type=int, default=None,
                              help="simulate exactly this many requests")
    fleet_parser.add_argument("--horizon", type=float, default=None,
                              metavar="SECONDS",
                              help="simulate this horizon instead of a count")
    fleet_parser.add_argument("--rate", type=float, default=None,
                              help="mean request rate in req/s "
                                   "(default: 70%% of fleet capacity)")
    fleet_parser.add_argument("--arrivals", default="poisson",
                              choices=("poisson", "periodic", "bursty",
                                       "diurnal"),
                              help="arrival process (default poisson)")
    fleet_parser.add_argument("--burst-size", type=int, default=8,
                              help="requests per burst for --arrivals bursty")
    fleet_parser.add_argument("--period", type=float, default=None,
                              metavar="SECONDS",
                              help="cycle length for --arrivals diurnal "
                                   "(default: half the horizon)")
    fleet_parser.add_argument("--policy", default="least-outstanding",
                              choices=("round-robin", "least-outstanding",
                                       "energy-aware"),
                              help="routing policy")
    fleet_parser.add_argument("--epochs", type=int, default=1024,
                              help="routing epochs (default 1024)")
    fleet_parser.add_argument("--seed", type=int, default=0,
                              help="workload seed (reports are byte-identical "
                                   "per seed)")
    fleet_parser.add_argument("--admit-limit", type=int, default=None,
                              metavar="N",
                              help="admission control: max queue per node")
    fleet_parser.add_argument("--autoscale", action="store_true",
                              help="enable the queue-depth autoscaler")
    fleet_parser.add_argument("--format", choices=("json", "text"),
                              default="json", help="output format")
    fleet_parser.add_argument("--output", metavar="PATH",
                              help="write the report to PATH instead of stdout")
    fleet_parser.set_defaults(handler=_cmd_fleet)

    diff_parser = subparsers.add_parser(
        "diff", help="compare two result snapshots")
    diff_parser.add_argument("before")
    diff_parser.add_argument("after")
    diff_parser.add_argument("--tolerance", type=float, default=0.01,
                             help="relative tolerance for numeric cells")
    diff_parser.set_defaults(handler=_cmd_diff)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
