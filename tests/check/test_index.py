"""The shared AST index equals the recursive walks it replaced.

Every module of the package and of the test suite, plus small sources for
shapes neither contains, is indexed and compared by identity with
``tests/check/reference.py``: the node list with an ``ast.NodeVisitor``
pre-order, each def's own nodes with the recursive skip-defs walk, each
body slice with the nodes under the body statements, and the
``ImportFrom`` list with what ``ast.walk`` finds.
"""

from __future__ import annotations

import ast
import sys
import textwrap
from pathlib import Path

import pytest

from repro.check import astutil
from tests.check.reference import body_nodes, visitor_order, walk_skip_defs

TESTS_ROOT = Path(__file__).resolve().parents[1]

#: shapes the package lacks: async defs, lambdas, a class inside a def,
#: decorators and defaults, ``with ... as`` targets and ``match``.
SHAPES = """
import asyncio
from random import random as jitter


@decorate(flag=lambda: jitter())
async def fetch(url, retries=default_retries(), *, timeout: float = 1.0) -> bytes:
    async with session(url) as (reader, writers[0]):
        data = await reader.read()
    async for chunk in stream(lambda part: part.strip()):
        data += chunk
    return data


def outer(items, key=lambda item: item.name):
    class Local(Base, metaclass=Meta):
        field = compute()

        @staticmethod
        def method(value=default()):
            return helper(value)

    with lock() as guard, open(path) as handle:
        handle.write(guard)

    def inner(x=outer_default()) -> int:
        from os import path as inner_path
        return x

    return sorted(items, key=lambda item: (item, inner(item), Local))


def dispatch(command):
    match command:
        case {"op": op, **rest} if op in table:
            return table[op](rest)
        case [first, *others]:
            from collections import deque
            return deque([first, *others])
        case Point(x=0, y=y):
            return y
        case _:
            def fallback():
                return None
            return fallback()
"""

#: PEP 695 type parameters (parsed on Python 3.12+ only).
TYPE_PARAMS = """
def first[T](items: list[T]) -> T:
    def inner[U](value: U) -> U:
        return value
    return inner(items[0])


class Box[T]:
    def get[U](self, default: U) -> T | U:
        return default


type Alias[K] = dict[K, int]
"""


@pytest.fixture(scope="module")
def corpus() -> list[astutil.SourceModule]:
    paths = sorted(astutil.package_root().rglob("*.py")) + sorted(
        TESTS_ROOT.rglob("*.py"))
    modules = [astutil.load_source(path.read_text(), str(path))
               for path in paths]
    snippets = [SHAPES] + ([TYPE_PARAMS] if sys.version_info >= (3, 12)
                           else [])
    modules += [astutil.load_source(textwrap.dedent(source),
                                    f"src/repro/engine/shapes_{n}.py")
                for n, source in enumerate(snippets)]
    return modules


def _defs(tree: ast.AST) -> list[ast.AST]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _same(actual: list[ast.AST], expected: list[ast.AST]) -> bool:
    return len(actual) == len(expected) and all(
        a is b for a, b in zip(actual, expected))


def test_corpus_covers_the_package_the_tests_and_the_extra_shapes(corpus):
    assert len(corpus) > 250
    shapes = next(module for module in corpus
                  if module.display.endswith("shapes_0.py"))
    kinds = {type(node) for node in shapes.index.nodes}
    assert {ast.AsyncFunctionDef, ast.AsyncWith, ast.Lambda, ast.ClassDef,
            ast.Match, ast.withitem} <= kinds


def test_nodes_follow_node_visitor_pre_order(corpus):
    for module in corpus:
        assert _same(module.index.nodes, visitor_order(module.tree)), \
            module.display


def test_each_def_owns_exactly_the_skip_defs_walk(corpus):
    for module in corpus:
        defs = _defs(module.tree)
        assert len(module.index.own) == len(defs), module.display
        for node in defs:
            assert _same(module.index.own[node],
                         list(walk_skip_defs(node))), \
                f"{module.display}:{node.lineno} {node.name}"


def test_body_slice_is_the_nodes_under_the_body_statements(corpus):
    for module in corpus:
        for node in _defs(module.tree):
            assert _same(module.index.body(node), body_nodes(node)), \
                f"{module.display}:{node.lineno} {node.name}"


def test_import_froms_are_every_import_from_in_the_tree(corpus):
    for module in corpus:
        expected = [node for node in ast.walk(module.tree)
                    if isinstance(node, ast.ImportFrom)]
        actual = module.index.import_froms
        assert len(actual) == len(expected), module.display
        assert {id(node) for node in actual} == \
            {id(node) for node in expected}, module.display
