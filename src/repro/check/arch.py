"""Architectural linter: `ast`-based contract checks over ``src/repro``.

The runtime layer introduced contracts that convention alone cannot hold:
all measurement goes through the :class:`~repro.runtime.runner.Runner`, and
everything the engine memoizes must be pure.  This pass walks the package
source and enforces them:

* **ARCH001** — no direct ``InferenceSession``/``InferenceTimer``
  construction outside the ``runtime``/``engine``/``measurement`` layers.
  Code that prices a deployment no scenario names (ext-sustained's
  DVFS-modified Raspberry Pi) carries an explicit inline suppression
  instead.
* **ARCH003** — no ``==``/``!=`` against float literals; physics code
  compares with tolerances or sentinels.
* **ARCH004** — no nondeterministic calls (``random``, wall-clock ``time``,
  ``uuid``, ``secrets``, unseeded ``default_rng``) in the pure cached paths
  (``engine``/``graphs``/``frameworks``/``models``/``hardware``), which the
  ``engine.cache`` purity contract relies on.
* **ARCH005** — the sweep compiler (``engine/compile.py``) is a pure
  lowering pass: no session/timer/meter construction (ARCH001's engine-layer
  exemption does not extend to it), no RNG even seeded, and no wall clock —
  its ``*_s`` compile stats are stamped by the driver.
* **ARCH006** — the fleet simulator (``fleet/``) is deterministic per seed:
  no wall clock (simulated time only), no ``random``/``uuid``/``secrets``,
  and no ``default_rng`` even seeded — workload randomness enters exclusively
  through seeded ``workloads.arrivals`` processes, so the same pools,
  stream and seed always produce byte-identical reports.
* **ARCH007** — the placement layer (``placement/``) is a deterministic
  search over engine-priced deployments: no wall clock, no RNG even
  seeded (the same model, fleet, link and SLO must always yield the same
  frontier), and — via ARCH001, which has no placement exemption — no
  ad-hoc session construction; pricing goes through the Runner.

Suppress a finding by annotating its line, or a whole module with a
file-level comment (see :mod:`repro.check.suppress` for both forms)::

    session = InferenceSession(deployed)  # repro: allow[ARCH001] simulation
    # repro: allow-file[ARCH003] fixture module full of golden constants

The comment names the rule(s) it silences; anything else still reports.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.check import astutil
from repro.check.astutil import NondetCall, classify_nondet
from repro.check.findings import Finding, Severity

RULES: dict[str, tuple[Severity, str]] = {
    "ARCH001": (Severity.ERROR, "sessions/timers are constructed by the runtime layer, "
                                "not ad hoc"),
    "ARCH003": (Severity.ERROR, "float literal compared with ==/!=; use a tolerance"),
    "ARCH004": (Severity.ERROR, "nondeterministic call in a pure cached path"),
    "ARCH005": (Severity.ERROR, "impure call inside the sweep compiler; compile "
                                "lowers cached inputs to arrays and nothing else"),
    "ARCH006": (Severity.ERROR, "nondeterministic call inside the fleet simulator; "
                                "randomness enters via seeded arrival processes only"),
    "ARCH007": (Severity.ERROR, "nondeterministic call inside the placement layer; "
                                "the same inputs must yield the same frontier"),
}

#: module path prefixes (relative to the repro package) per rule exemption.
_SESSION_LAYERS = ("runtime", "engine", "measurement")
_PURE_LAYERS = ("engine", "graphs", "frameworks", "models", "hardware")
#: the sweep compiler holds a stricter contract than its engine siblings:
#: ARCH001's engine-layer exemption does not apply, RNG is banned even
#: seeded, and wall-clock stats are stamped by the driver (Runner.run_grid).
_COMPILED_MODULE = ("engine", "compile.py")
#: layers promising byte-identical outputs per input: clocks and RNG (even
#: seeded) are banned outright.  layer -> (rule, noun, RNG hint, clock hint).
#: The fleet simulator draws randomness only from seeded arrival processes;
#: the placement layer is a pure search over engine-priced deployments.
_DETERMINISTIC_LAYERS: dict[str, tuple[str, str, str, str]] = {
    "fleet": ("ARCH006", "fleet simulator",
              "draw randomness from a seeded workloads.arrivals process",
              "the event loop keeps simulated time"),
    "placement": ("ARCH007", "placement optimizer",
                  "the search must be reproducible input-for-input",
                  "deployments are priced in engine seconds, not wall time"),
}

_SESSION_TYPES = ("InferenceSession", "InferenceTimer")
_MEASUREMENT_TYPES = ("InferenceSession", "InferenceTimer", "EnergyMeter")


class _ContractChecker:
    """Checks one module's nodes; nondeterminism verdicts come from the
    shared :func:`repro.check.astutil.classify_nondet` catalog, so
    ARCH004–ARCH007 and the interprocedural RACE004 rule agree on what
    "nondeterministic" means — one engine, several contracts."""

    def __init__(self, module: astutil.SourceModule):
        self.module = module
        self.parts = module.parts
        self.display = module.display
        self.suppressions = module.suppressions
        self.findings: list[Finding] = []
        self._nondet_imports = astutil.NondetImports()

    # -- helpers ---------------------------------------------------------
    def _layer(self) -> str:
        return self.module.layer

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if self.suppressions.allows(rule, lineno):
            return
        self.findings.append(Finding(
            rule, RULES[rule][0], f"{self.display}:{lineno}", message))

    # -- imports feeding the nondeterminism classifier -------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._nondet_imports.visit_import_from(node)

    # -- calls -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = astutil.call_name(node)
        if name in _SESSION_TYPES and self._layer() not in _SESSION_LAYERS:
            self._emit("ARCH001", node,
                       f"direct {name} construction outside the runtime layer")
        verdict = classify_nondet(node, self._nondet_imports)
        deterministic = _DETERMINISTIC_LAYERS.get(self._layer())
        if self.parts == _COMPILED_MODULE:
            self._check_compiled_purity(node, name, verdict)
        elif deterministic is not None:
            self._check_deterministic_layer(node, verdict, *deterministic)
        elif self._layer() in _PURE_LAYERS:
            self._check_purity(node, verdict)

    def _check_compiled_purity(self, node: ast.Call, name: str | None,
                               verdict: NondetCall | None) -> None:
        """ARCH005: the sweep compiler is a pure lowering pass."""
        if name in _MEASUREMENT_TYPES:
            self._emit("ARCH005", node,
                       f"{name} constructed inside the sweep compiler; sessions, "
                       "timers and meters belong to the runtime layer")
            return
        if verdict is None:
            return
        if verdict.kind in ("rng-seeded", "rng-unseeded"):
            self._emit("ARCH005", node,
                       "RNG in the sweep compiler (even seeded); measurement "
                       "noise belongs to the timing driver")
        elif verdict.kind == "wall-clock":
            self._emit("ARCH005", node,
                       f"wall-clock call {verdict.description} in the sweep "
                       "compiler; compile stats are stamped by the driver")
        else:
            self._emit("ARCH005", node,
                       f"nondeterministic call {verdict.description} in the "
                       "sweep compiler")

    def _check_deterministic_layer(self, node: ast.Call,
                                   verdict: NondetCall | None,
                                   rule: str, noun: str, rng_hint: str,
                                   clock_hint: str) -> None:
        """ARCH006/ARCH007: layers that promise byte-identical outputs.

        The fleet simulator's only clock is simulated time and its only
        randomness the seeded arrival processes; the placement optimizer
        must map the same inputs to the same frontier.  Either way, wall
        clocks and RNG (even seeded) are banned.
        """
        if verdict is None:
            return
        if verdict.kind in ("rng-seeded", "rng-unseeded"):
            self._emit(rule, node,
                       f"RNG inside the {noun} (even seeded); {rng_hint}")
        elif verdict.kind == "wall-clock":
            self._emit(rule, node,
                       f"wall-clock call {verdict.description} in the "
                       f"{noun}; {clock_hint}")
        else:
            self._emit(rule, node,
                       f"nondeterministic call {verdict.description} in "
                       f"the {noun}")

    def _check_purity(self, node: ast.Call,
                      verdict: NondetCall | None) -> None:
        """ARCH004: pure cached layers — seeded RNG alone is exempt, since
        a seeded generator is deterministic; the argless form seeds from
        the OS and breaks the contract."""
        if verdict is None or verdict.deterministic:
            return
        if verdict.kind == "rng-unseeded":
            self._emit("ARCH004", node,
                       "unseeded default_rng() in a cached path")
        elif verdict.kind == "wall-clock":
            self._emit("ARCH004", node,
                       f"wall-clock call {verdict.description}")
        else:
            self._emit("ARCH004", node,
                       f"nondeterministic call {verdict.description}")

    # -- comparisons -----------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(isinstance(operand, ast.Constant)
                   and isinstance(operand.value, float)
                   for operand in operands):
                self._emit("ARCH003", node,
                           "float literal compared with ==/!=")


def lint_module(module: astutil.SourceModule) -> list[Finding]:
    """Lint one pre-parsed module, in its index's ``NodeVisitor`` order."""
    checker = _ContractChecker(module)
    for node in module.index.nodes:
        cls = node.__class__
        if cls is ast.Call:
            checker.visit_Call(node)
        elif cls is ast.Compare:
            checker.visit_Compare(node)
        elif cls is ast.ImportFrom:
            checker.visit_ImportFrom(node)
    return checker.findings


def lint_source(source: str, path: str) -> list[Finding]:
    """Lint one module's source text; ``path`` decides layer exemptions."""
    return lint_module(astutil.load_source(source, path))


def lint_paths(paths: list[Path]) -> list[Finding]:
    findings: list[Finding] = []
    for path in sorted(paths):
        findings += lint_source(path.read_text(), str(path))
    return findings


#: re-exported so existing callers keep working; astutil owns discovery.
package_root = astutil.package_root


def run(root: Path | None = None,
        modules: list[astutil.SourceModule] | None = None) -> list[Finding]:
    """Architecture pass entry point: lint every module under ``root``.

    ``modules`` shares a pre-parsed package (one parse for all source passes).
    """
    if modules is None:
        modules = astutil.load_package(root)
    return [finding for module in modules for finding in lint_module(module)]
