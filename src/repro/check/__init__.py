"""`repro.check`: static verification over the graph IR, data tables and
runtime-layer architecture.

Six passes, one vocabulary (:class:`~repro.check.findings.Finding`):

* ``ir`` — re-verifies every zoo graph and every transform output
  (well-formedness + conservation invariants), rules ``IR0xx``/``IR1xx``.
* ``shapes`` — symbolic shape & dtype abstract interpreter: re-derives every
  op's output shape, MACs, params and bytes from per-op transfer functions
  and compares against the stored accounting at zero tolerance, including
  under symbolic batch/sequence dims, rules ``SHAPExxx``.
* ``tables`` — cross-validates device specs, framework capability tables,
  calibration anchors and the Table V declarations, rules ``TABxxx``.
* ``arch`` — `ast` lint of ``src/repro`` enforcing the runtime-layer
  contracts, rules ``ARCHxxx``.
* ``units`` — `ast` dimensional analysis of the quantity dataflow
  (seconds vs milliseconds, energy vs power), rules ``UNITxxx``.
* ``effects`` — interprocedural effect inference over the package call
  graph: parallel-path race rules (``RACExxx``), cache-key soundness
  (``KEYxxx``) and cached-value escape analysis (``ALIASxxx``).

``python -m repro check --strict`` runs all six in one invocation — the three
source passes (``arch``/``units``/``effects``) share a single indexed
:class:`~repro.check.astutil.SourceModule` parse of the package — and exits
non-zero on any finding; ``--stats`` adds per-pass and parse wall times.  See
``docs/checks.md`` for the full rule catalog and the suppression syntax.
"""

from __future__ import annotations

import time
from typing import MutableMapping, Sequence

from repro.check import arch, astutil, effects, ir, shapes, tables, units
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
    "ir": ir.run,
    "shapes": shapes.run,
    "tables": tables.run,
    "arch": arch.run,
    "units": units.run,
    "effects": effects.run,
}

PASS_NAMES = tuple(PASSES)

#: passes that interpret the package source and accept a shared parse.
_SOURCE_PASSES = frozenset(("arch", "units", "effects"))


def rule_catalog() -> dict[str, tuple[Severity, str]]:
    """Every known rule id -> (severity, description), across all passes."""
    catalog: dict[str, tuple[Severity, str]] = {}
    for module in (ir, shapes, tables, arch, units, effects):
        catalog.update(module.RULES)
    return catalog


def run_checks(passes: Sequence[str] | None = None,
               ignore: Sequence[str] = (),
               timings: MutableMapping[str, float] | None = None) -> list[Finding]:
    """Run the requested passes (default: all) and apply rule suppression.

    The package source is parsed (and indexed) once and shared across
    every selected source pass.  With ``timings`` supplied, each pass's
    wall time in seconds is recorded under its name, and the shared parse
    under ``parse`` when a source pass runs (``--stats`` in the CLI).
    """
    selected = PASS_NAMES if not passes else tuple(passes)
    unknown = [name for name in selected if name not in PASSES]
    if unknown:
        raise ValueError(f"unknown check pass(es) {unknown}; "
                         f"known: {', '.join(PASS_NAMES)}")
    modules = None
    findings: list[Finding] = []
    for name in selected:
        if name in _SOURCE_PASSES and modules is None:
            started = time.perf_counter()
            modules = astutil.load_package()
            if timings is not None:
                timings["parse"] = time.perf_counter() - started
        started = time.perf_counter()
        if name in _SOURCE_PASSES:
            findings += PASSES[name](modules=modules)
        else:
            findings += PASSES[name]()
        if timings is not None:
            timings[name] = time.perf_counter() - started
    return suppress(findings, ignore)


__all__ = [
    "Finding",
    "PASSES",
    "PASS_NAMES",
    "Severity",
    "arch",
    "count_by_severity",
    "effects",
    "ir",
    "render_github",
    "render_json",
    "render_text",
    "rule_catalog",
    "run_checks",
    "shapes",
    "suppress",
    "tables",
    "units",
]
