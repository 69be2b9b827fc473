"""Test-only references for the shared AST index.

:class:`repro.check.astutil.AstIndex` walks each module once, iteratively,
and every source pass reads that walk.  These are the recursive walks the
passes made before, kept as the oracle the index must match node for node.
"""

from __future__ import annotations

import ast


def walk_skip_defs(node: ast.AST):
    """``ast.walk`` that stays inside one function: nested ``def``s are
    their own functions, so their bodies are not this one's nodes (the
    recursive generator the call graph and the effects pass used)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        yield from walk_skip_defs(child)


def body_nodes(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.AST]:
    """The nodes of ``walk_skip_defs(node)`` under its body statements."""
    out: list[ast.AST] = []
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(stmt)
            out.extend(walk_skip_defs(stmt))
    return out


class _PreOrder(ast.NodeVisitor):
    def __init__(self) -> None:
        self.nodes: list[ast.AST] = []

    def generic_visit(self, node: ast.AST) -> None:
        self.nodes.append(node)
        super().generic_visit(node)


def visitor_order(tree: ast.AST) -> list[ast.AST]:
    """Every node in the order an ``ast.NodeVisitor`` visits them."""
    collector = _PreOrder()
    collector.visit(tree)
    return collector.nodes
