"""`repro.check`: static verification over the graph IR, data tables and
runtime-layer architecture.

Five passes, one vocabulary (:class:`~repro.check.findings.Finding`):

* ``graphs`` — loads every zoo graph once and builds its transform outputs
  once, then verifies each graph's structure (rules ``IR0xx``), re-derives
  every op's output shape, MACs, params and bytes from per-op transfer
  functions and compares against the stored accounting at zero tolerance,
  including under symbolic batch/sequence dims (rules ``SHAPExxx``), and
  checks each transform's conservation laws (``IR1xx``, ``SHAPE008``).
* ``tables`` — cross-validates device specs, framework capability tables,
  calibration anchors and the Table V declarations, rules ``TABxxx``.
* ``arch`` — `ast` lint of ``src/repro`` enforcing the runtime-layer
  contracts, rules ``ARCHxxx``.
* ``units`` — `ast` dimensional analysis of the quantity dataflow
  (seconds vs milliseconds, energy vs power), rules ``UNITxxx``.
* ``effects`` — interprocedural effect inference over the package call
  graph: parallel-path race rules (``RACExxx``), cache-key soundness
  (``KEYxxx``) and cached-value escape analysis (``ALIASxxx``).

``python -m repro check --strict`` runs all five in one invocation and exits
non-zero on any finding.  The passes fall into two halves that share
nothing: the graph half (``graphs``/``tables``) and the source half, whose
three passes (``arch``/``units``/``effects``) share a single indexed
:class:`~repro.check.astutil.SourceModule` parse of the package.  When a
run selects both halves and may use more than one CPU, one forked worker
runs the graph half while the caller parses and runs the source half.
``--stats`` adds per-pass, parse and wall times.  See ``docs/checks.md``
for the full rule catalog and the suppression syntax.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import MutableMapping, Sequence

from repro.check import arch, astutil, effects, graphs, tables, units
from repro.check.findings import (
    Finding,
    Severity,
    count_by_severity,
    render_github,
    render_json,
    render_text,
    suppress,
)

#: pass name -> entry point, in report order.
PASSES = {
    "graphs": graphs.run,
    "tables": tables.run,
    "arch": arch.run,
    "units": units.run,
    "effects": effects.run,
}

PASS_NAMES = tuple(PASSES)

#: passes that interpret the package source and accept a shared parse (the
#: source half); the rest build and verify graphs and tables (the graph half).
_SOURCE_PASSES = frozenset(("arch", "units", "effects"))

#: pass name (or ``parse``) -> (findings, wall seconds).
_Results = dict[str, tuple[list[Finding], float]]


def rule_catalog() -> dict[str, tuple[Severity, str]]:
    """Every known rule id -> (severity, description), across all passes."""
    catalog: dict[str, tuple[Severity, str]] = {}
    for module in (graphs, tables, arch, units, effects):
        catalog.update(module.RULES)
    return catalog


def run_checks(passes: Sequence[str] | None = None,
               ignore: Sequence[str] = (),
               timings: MutableMapping[str, float] | None = None) -> list[Finding]:
    """Run the requested passes (default: all) and apply rule suppression.

    The package source is parsed (and indexed) once and shared across
    every selected source pass.  When the selection holds both halves, the
    process may use more than one CPU and the ``fork`` start method
    exists, one forked worker runs the graph half while this process
    parses and runs the source half; otherwise every pass runs here, in
    selection order.  Either way the findings come back in selection
    order.  With ``timings`` supplied, each pass's wall time in seconds is
    recorded under its name, and the shared parse under ``parse`` just
    before the first source pass (``--stats`` in the CLI); once the halves
    overlap, these times add up to more than the wall time.
    """
    selected = PASS_NAMES if not passes else tuple(passes)
    unknown = [name for name in selected if name not in PASSES]
    if unknown:
        raise ValueError(f"unknown check pass(es) {unknown}; "
                         f"known: {', '.join(PASS_NAMES)}")
    source = [name for name in selected if name in _SOURCE_PASSES]
    graph = [name for name in selected if name not in _SOURCE_PASSES]
    if source and graph and _can_fork():
        # fork: the worker inherits this process's modules and monkeypatches
        # and starts in milliseconds; it is forked at submit, before the parse
        with ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("fork")) as pool:
            graph_half = pool.submit(_run_passes, graph)
            results = _run_passes(source)
            results.update(graph_half.result())
    else:
        results = _run_passes(selected)
    order = list(selected)
    if source:
        order.insert(order.index(source[0]), "parse")
    findings: list[Finding] = []
    for name in order:
        found, seconds = results[name]
        findings += found
        if timings is not None:
            timings[name] = seconds
    return suppress(findings, ignore)


def _run_passes(names: Sequence[str]) -> _Results:
    """Run ``names`` in order, parsing the package before the first
    source pass; the parse is recorded under ``parse``."""
    results: _Results = {}
    modules = None
    for name in names:
        if name in _SOURCE_PASSES and modules is None:
            started = time.perf_counter()
            modules = astutil.load_package()
            results["parse"] = ([], time.perf_counter() - started)
        started = time.perf_counter()
        if name in _SOURCE_PASSES:
            found = PASSES[name](modules=modules)
        else:
            found = PASSES[name]()
        results[name] = (found, time.perf_counter() - started)
    return results


def _can_fork() -> bool:
    """Whether a forked worker can run beside the caller: more than one
    usable CPU and the ``fork`` start method."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return cpus > 1 and "fork" in multiprocessing.get_all_start_methods()


__all__ = [
    "Finding",
    "PASSES",
    "PASS_NAMES",
    "Severity",
    "arch",
    "count_by_severity",
    "effects",
    "graphs",
    "render_github",
    "render_json",
    "render_text",
    "rule_catalog",
    "run_checks",
    "suppress",
    "tables",
    "units",
]
