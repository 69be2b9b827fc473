"""Shared AST plumbing for the source-level check passes.

Three passes walk the package source — the architectural linter
(:mod:`repro.check.arch`), the dimensional analyzer
(:mod:`repro.check.units`) and the effect-inference pass
(:mod:`repro.check.effects`).  Each used to re-implement the same three
chores; this module is the single copy:

* **module discovery** — :func:`package_root` finds the installed
  ``repro`` package and :func:`load_package` parses every module under it
  into :class:`SourceModule` records (source, AST, package-relative path,
  suppression index) so a multi-pass run parses each file once.
* **one walk per module** — :class:`AstIndex`, built at parse time, holds
  the module's nodes in ``ast.NodeVisitor`` order, each ``def``'s own
  nodes and body slice, and its ``ImportFrom`` nodes, so the source
  passes iterate lists instead of re-walking the tree.
* **AST helpers** — :func:`dotted_chain` / :func:`call_name` normalize
  the ``a.b.c(...)`` shapes every pass pattern-matches on.
* **nondeterminism classification** — :func:`classify_nondet` is the one
  catalog of impurity primitives (RNG, wall clocks, ``uuid``/``secrets``,
  ``os.urandom``) behind ARCH004–ARCH007 *and* the interprocedural
  RACE004 rule, so "what counts as nondeterministic" has exactly one
  definition.  :class:`NondetImports` tracks ``from random import ...``
  aliases so renamed imports don't evade it.

The suppression-comment grammar stays in :mod:`repro.check.suppress`
(it is shared with non-AST tooling); the path helpers are re-exported
here so AST passes need only one import.
"""

from __future__ import annotations

import ast
import gc
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.check.suppress import SuppressionIndex, display_path, relative_parts

__all__ = [
    "AstIndex",
    "NondetCall",
    "NondetImports",
    "SourceModule",
    "call_name",
    "classify_nondet",
    "display_path",
    "dotted_chain",
    "load_package",
    "load_source",
    "package_root",
    "relative_parts",
]


# -- module discovery ------------------------------------------------------
def package_root() -> Path:
    """Directory of the installed ``repro`` package (the check target)."""
    import repro

    return Path(repro.__file__).resolve().parent


class AstIndex:
    """One pre-order walk of a module, in ``ast.NodeVisitor`` order.

    ``nodes`` holds every node, the module first, and ``import_froms``
    every ``ImportFrom``.  ``own[d]`` holds the nodes of ``def`` node
    ``d`` that belong to no nested ``def`` (lambdas and classes are not
    ``def``\\ s); :meth:`body` is the part of them under ``d.body``.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.nodes: list[ast.AST] = []
        self.import_froms: list[ast.ImportFrom] = []
        #: def -> own nodes under its arguments, its body, and the rest.
        parts: dict[ast.AST, tuple[list, list, list]] = {}
        stack: list[tuple[ast.AST, list | None]] = [(tree, None)]
        # local names: the loop below runs once per node of the package
        pop, push, visit = stack.pop, stack.append, self.nodes.append
        node_type, function, async_function, import_from = (
            ast.AST, ast.FunctionDef, ast.AsyncFunctionDef, ast.ImportFrom)
        # children are pushed in reverse so that they pop in field order
        while stack:
            node, into = pop()
            visit(node)
            cls = node.__class__
            if cls is function or cls is async_function:
                # a def owns its children: fields args, body, then the
                # rest (decorator_list, returns, type_params)
                head, body, tail = parts[node] = ([], [], [])
                for item in reversed(getattr(node, "type_params", ())):
                    push((item, tail))
                if node.returns is not None:
                    push((node.returns, tail))
                for item in reversed(node.decorator_list):
                    push((item, tail))
                for item in reversed(node.body):
                    push((item, body))
                push((node.args, head))
                continue
            if into is not None:
                into.append(node)
            if cls is import_from:
                self.import_froms.append(node)
            for name in reversed(node._fields):
                value = getattr(node, name, None)
                if value.__class__ is list:
                    for item in reversed(value):
                        if isinstance(item, node_type):
                            push((item, into))
                elif isinstance(value, node_type):
                    push((value, into))
        self.own = {node: head + body + tail
                    for node, (head, body, tail) in parts.items()}
        self._body = {node: (len(head), len(head) + len(body))
                      for node, (head, body, _) in parts.items()}

    def body(self, node: ast.FunctionDef | ast.AsyncFunctionDef
             ) -> list[ast.AST]:
        """The own nodes of ``node`` that lie under its body statements."""
        start, stop = self._body[node]
        return self.own[node][start:stop]


@dataclass(frozen=True)
class SourceModule:
    """One parsed module: everything a source-level pass needs, read once."""

    path: str
    display: str
    parts: tuple[str, ...]
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    #: the shared walk every source pass iterates (built with the parse).
    index: AstIndex

    @property
    def layer(self) -> str:
        """Top-level package directory (``engine``, ``fleet``, ...)."""
        return self.parts[0] if len(self.parts) > 1 else ""


def load_source(source: str, path: str) -> SourceModule:
    """Parse one module's source text into a :class:`SourceModule`."""
    tree = ast.parse(source, filename=path)
    return SourceModule(
        path=path,
        display=display_path(path),
        parts=relative_parts(path),
        source=source,
        tree=tree,
        suppressions=SuppressionIndex.from_source(source),
        index=AstIndex(tree),
    )


def load_package(root: Path | None = None) -> list[SourceModule]:
    """Every module under ``root`` (default: the installed package), sorted.

    The cyclic collector is paused while the modules are parsed and its
    previous state restored afterwards, also when a file fails to parse.
    The trees and indexes hold no reference cycles, so a collection there
    reclaims nothing; it would only re-walk the growing forest.
    """
    root = Path(root) if root is not None else package_root()
    collecting = gc.isenabled()
    gc.disable()
    try:
        return [load_source(path.read_text(), str(path))
                for path in sorted(root.rglob("*.py"))]
    finally:
        if collecting:
            gc.enable()


# -- AST helpers -----------------------------------------------------------
def dotted_chain(node: ast.expr) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty for non-name chains."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
        return list(reversed(chain))
    return []


def call_name(node: ast.Call) -> str | None:
    """The called function's simple name (``f`` for both ``f()`` and ``o.f()``)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


# -- nondeterminism primitives --------------------------------------------
_TIME_FUNCS = ("time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
               "perf_counter_ns", "process_time", "process_time_ns")
_RANDOM_MODULES = ("random", "secrets", "uuid")
_DATETIME_NOW = ("now", "utcnow", "today")


@dataclass(frozen=True)
class NondetCall:
    """One classified impurity primitive at a call site.

    ``kind`` is the decision axis the rules filter on:

    * ``"rng-seeded"`` — ``default_rng(seed)``; deterministic, so only the
      strict layers (ARCH005–ARCH007) ban it.
    * ``"rng-unseeded"`` — ``default_rng()`` seeding from the OS.
    * ``"random-module"`` — any ``random``/``secrets``/``uuid`` call.
    * ``"wall-clock"`` — ``time.*`` clocks and ``datetime.now``-family.
    * ``"urandom"`` — ``os.urandom``.
    * ``"imported"`` — a call through a ``from random import ...`` alias.
    """

    kind: str
    description: str

    @property
    def deterministic(self) -> bool:
        """Whether the call is reproducible (seeded RNG is; clocks aren't)."""
        return self.kind == "rng-seeded"


class NondetImports:
    """Tracks names imported *from* the nondeterminism modules.

    ``from random import random as jitter`` binds ``jitter`` in the module
    namespace; recording the aliases lets :func:`classify_nondet` catch the
    later bare ``jitter()`` call.
    """

    def __init__(self, nodes: Iterable[ast.ImportFrom] = ()) -> None:
        self.names: set[str] = set()
        for node in nodes:
            self.visit_import_from(node)

    def visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.module in _RANDOM_MODULES:
            self.names.update(alias.asname or alias.name
                              for alias in node.names)
        elif node.module == "time":
            self.names.update(alias.asname or alias.name
                              for alias in node.names
                              if alias.name in _TIME_FUNCS)


def classify_nondet(node: ast.Call, imports: NondetImports | None = None
                    ) -> NondetCall | None:
    """Classify one call against the impurity-primitive catalog.

    Returns ``None`` for calls that are deterministic as far as the
    catalog knows.  The caller decides which kinds its contract bans —
    every ARCH/RACE determinism rule routes through this one function.
    """
    name = call_name(node)
    if name == "default_rng":
        if node.args or node.keywords:
            return NondetCall("rng-seeded", "default_rng(seed)")
        return NondetCall("rng-unseeded", "unseeded default_rng()")
    chain = dotted_chain(node.func)
    if chain:
        root, leaf = chain[0], chain[-1]
        dotted = ".".join(chain)
        if root in _RANDOM_MODULES or "random" in chain[:-1]:
            return NondetCall("random-module", f"{dotted}()")
        if root == "time" and leaf in _TIME_FUNCS:
            return NondetCall("wall-clock", f"{dotted}()")
        if root == "datetime" and leaf in _DATETIME_NOW:
            return NondetCall("wall-clock", f"{dotted}()")
        if root == "os" and leaf == "urandom":
            return NondetCall("urandom", "os.urandom()")
    if imports is not None and isinstance(node.func, ast.Name) \
            and node.func.id in imports.names:
        return NondetCall(
            "imported",
            f"{node.func.id}() (imported from a random/time module)")
    return None
