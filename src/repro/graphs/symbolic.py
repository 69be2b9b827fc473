"""Symbolic dimension algebra for shape inference.

The graph pass (``repro check graphs``) re-derives every tensor shape in a
graph from first principles.  To prove a graph is valid for *all* batch sizes
``N >= 1`` — not just the baked-in concrete dims — it needs dimensions that can
stay symbolic through conv/pool arithmetic.  This module provides that
algebra: :class:`SymDim` is an immutable affine-plus-products expression over
named dimensions, with floor division as an opaque-but-evaluable atom (the one
operation conv/pool output-length formulas need that affine arithmetic cannot
fold).

Design points:

* Expressions normalize on construction: ``dim("N") * 2 + dim("N")`` and
  ``3 * dim("N")`` are structurally equal (same hash, ``==``).  Constant
  subexpressions fold to plain ``int`` — arithmetic never returns a
  :class:`SymDim` wrapping a constant, so concrete graphs pay nothing.
* Floor division folds exactly when every coefficient and the constant are
  divisible (``(4 * N) // 2 == 2 * N``); otherwise it becomes an opaque atom
  evaluated at binding time.  ``ceil_div(x, k)`` normalizes to
  ``(x + k - 1) // k`` so the two spellings compare equal.
* ``evaluate(bindings)`` plugs concrete ints in for named dims and returns a
  plain ``int`` — the bridge between the symbolic run and the stored concrete
  accounting, compared at zero tolerance.

A dimension value anywhere in :mod:`repro.graphs` is ``int | SymDim`` (the
:data:`Dim` alias); helpers here (:func:`evaluate_dim`, :func:`free_symbols`,
:func:`prod_dims`) accept either.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

__all__ = [
    "Dim",
    "SymDim",
    "UnboundDimensionError",
    "ceil_div",
    "dim",
    "evaluate_dim",
    "floor_div",
    "free_symbols",
    "is_concrete",
    "prod_dims",
]


class UnboundDimensionError(KeyError):
    """Raised by ``evaluate`` when a named dim has no binding."""


# --------------------------------------------------------------------------
# atoms: the opaque factors a normalized expression is a combination of
# --------------------------------------------------------------------------


class _Atom:
    """A non-constant factor: a named dim, a floor-div, or a product."""

    __slots__ = ()

    def key(self) -> tuple:
        raise NotImplementedError

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        raise NotImplementedError

    def free_symbols(self) -> frozenset[str]:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError


class _Var(_Atom):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def key(self) -> tuple:
        return ("var", self.name)

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        try:
            return int(bindings[self.name])
        except KeyError:
            raise UnboundDimensionError(self.name) from None

    def free_symbols(self) -> frozenset[str]:
        return frozenset((self.name,))

    def render(self) -> str:
        return self.name


class _FloorDiv(_Atom):
    __slots__ = ("num", "den")

    def __init__(self, num: "SymDim", den: int):
        self.num = num
        self.den = den

    def key(self) -> tuple:
        return ("floordiv", self.num._key(), self.den)

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        return self.num.evaluate(bindings) // self.den

    def free_symbols(self) -> frozenset[str]:
        return self.num.free_symbols

    def render(self) -> str:
        return f"({self.num})//{self.den}"


class _Prod(_Atom):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[_Atom, ...]):
        self.factors = factors  # sorted by key, len >= 2

    def key(self) -> tuple:
        return ("prod",) + tuple(f.key() for f in self.factors)

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        out = 1
        for factor in self.factors:
            out *= factor.evaluate(bindings)
        return out

    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for factor in self.factors:
            out |= factor.free_symbols()
        return out

    def render(self) -> str:
        return "*".join(f.render() for f in self.factors)


def _atom_product(left: _Atom, right: _Atom) -> _Atom:
    factors: list[_Atom] = []
    for atom in (left, right):
        factors.extend(atom.factors if isinstance(atom, _Prod) else (atom,))
    factors.sort(key=lambda a: a.key())
    return _Prod(tuple(factors))


# --------------------------------------------------------------------------
# the expression: const + sum(coeff * atom)
# --------------------------------------------------------------------------


class SymDim:
    """An immutable symbolic dimension expression.

    Normal form: an integer constant plus a sorted sum of ``coeff * atom``
    terms with non-zero integer coefficients and at least one term (pure
    constants fold to plain ``int`` before a SymDim is ever built).
    """

    __slots__ = ("_const", "_terms", "_hash")

    def __init__(self, const: int, terms: tuple[tuple[_Atom, int], ...]):
        if not terms:
            raise ValueError("SymDim requires at least one symbolic term; "
                             "use a plain int for constants")
        self._const = const
        self._terms = terms
        self._hash = hash((const,) + tuple((a.key(), c) for a, c in terms))

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(const: int, terms: dict[tuple, tuple[_Atom, int]]) -> Dim:
        live = [(atom, coeff) for atom, coeff in terms.values() if coeff != 0]
        if not live:
            return const
        live.sort(key=lambda pair: pair[0].key())
        return SymDim(const, tuple(live))

    def _key(self) -> tuple:
        return (self._const,) + tuple((a.key(), c) for a, c in self._terms)

    # -- queries -----------------------------------------------------------

    @property
    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for atom, _ in self._terms:
            out |= atom.free_symbols()
        return out

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        total = self._const
        for atom, coeff in self._terms:
            total += coeff * atom.evaluate(bindings)
        return total

    # -- arithmetic --------------------------------------------------------

    def _term_map(self) -> dict[tuple, tuple[_Atom, int]]:
        return {atom.key(): (atom, coeff) for atom, coeff in self._terms}

    def __add__(self, other: Dim) -> Dim:
        if isinstance(other, int):
            return SymDim(self._const + other, self._terms)
        if not isinstance(other, SymDim):
            return NotImplemented
        terms = self._term_map()
        for atom, coeff in other._terms:
            key = atom.key()
            prev = terms.get(key, (atom, 0))[1]
            terms[key] = (atom, prev + coeff)
        return SymDim._make(self._const + other._const, terms)

    __radd__ = __add__

    def __neg__(self) -> "SymDim":
        return SymDim(-self._const, tuple((a, -c) for a, c in self._terms))

    def __sub__(self, other: Dim) -> Dim:
        if isinstance(other, int):
            return SymDim(self._const - other, self._terms)
        if not isinstance(other, SymDim):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Dim) -> Dim:
        if isinstance(other, int):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other: Dim) -> Dim:
        if isinstance(other, int):
            if other == 0:
                return 0
            return SymDim(self._const * other,
                          tuple((a, c * other) for a, c in self._terms))
        if not isinstance(other, SymDim):
            return NotImplemented
        terms: dict[tuple, tuple[_Atom, int]] = {}

        def _accumulate(atom: _Atom, coeff: int) -> None:
            key = atom.key()
            prev = terms.get(key, (atom, 0))[1]
            terms[key] = (atom, prev + coeff)

        # (c1 + sum a_i t_i) * (c2 + sum b_j u_j), distributed
        for atom, coeff in self._terms:
            if other._const:
                _accumulate(atom, coeff * other._const)
            for oatom, ocoeff in other._terms:
                _accumulate(_atom_product(atom, oatom), coeff * ocoeff)
        if self._const:
            for oatom, ocoeff in other._terms:
                _accumulate(oatom, self._const * ocoeff)
        return SymDim._make(self._const * other._const, terms)

    __rmul__ = __mul__

    def __floordiv__(self, den: int) -> Dim:
        if not isinstance(den, int):
            return NotImplemented
        if den <= 0:
            raise ValueError(f"floor division by non-positive {den}")
        if den == 1:
            return self
        if self._const % den == 0 and all(c % den == 0 for _, c in self._terms):
            return SymDim(self._const // den,
                          tuple((a, c // den) for a, c in self._terms))
        return SymDim(0, ((_FloorDiv(self, den), 1),))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SymDim):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts: list[str] = []
        for atom, coeff in self._terms:
            text = atom.render()
            if coeff == 1:
                parts.append(text)
            elif coeff == -1:
                parts.append(f"-{text}")
            else:
                parts.append(f"{coeff}*{text}")
        rendered = " + ".join(parts).replace("+ -", "- ")
        if self._const:
            rendered = f"{rendered} + {self._const}" if self._const > 0 \
                else f"{rendered} - {-self._const}"
        return rendered

    def __bool__(self) -> bool:
        return True


Dim = Union[int, SymDim]


# --------------------------------------------------------------------------
# module-level helpers over int | SymDim
# --------------------------------------------------------------------------


def dim(name: str) -> SymDim:
    """A named symbolic dimension, e.g. ``dim("N")``."""
    if not name or not name.isidentifier():
        raise ValueError(f"dimension name must be an identifier, got {name!r}")
    return SymDim(0, ((_Var(name), 1),))


def floor_div(value: Dim, den: int) -> Dim:
    """``value // den`` for either a concrete or symbolic value."""
    if isinstance(value, int):
        if den <= 0:
            raise ValueError(f"floor division by non-positive {den}")
        return value // den
    return value // den


def ceil_div(value: Dim, den: int) -> Dim:
    """``ceil(value / den)``, normalized to ``(value + den - 1) // den``."""
    return floor_div(value + (den - 1), den)


def evaluate_dim(value: Dim, bindings: Mapping[str, int]) -> int:
    """Concretize a dim: ints pass through, SymDims are evaluated."""
    if isinstance(value, int):
        return value
    return value.evaluate(bindings)


def free_symbols(value: Dim) -> frozenset[str]:
    if isinstance(value, int):
        return frozenset()
    return value.free_symbols


def is_concrete(value: Dim) -> bool:
    return isinstance(value, int)


def prod_dims(values: Iterable[Dim]) -> Dim:
    """Product of dims; stays a plain int when every factor is concrete."""
    out: Dim = 1
    for value in values:
        out = out * value
    return out
