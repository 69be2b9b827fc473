"""Dimensional-analysis pass: unit-check the quantity dataflow.

Every headline number the pipeline produces is a physical quantity —
latencies, energies per inference, power draws, byte traffic, MAC counts,
surface temperatures — and almost all of them travel between modules as
raw ``float``s.  This pass is an `ast`-based abstract interpreter that
assigns each expression a *dimension* (a :class:`~repro.core.dimension.Dim`
exponent vector) plus a *presentation scale* (so milliseconds and seconds
are distinct even though both are times), and propagates them through
assignments, calls, returns and arithmetic:

* multiplication/division combine dimensions (``power_w * latency_s`` is
  an energy; ``macs / time_s`` a throughput; ``latency_s / target_s`` a
  pure ratio);
* addition, subtraction, comparison and accumulation require *matching*
  dimensions **and** scales — ``latency_s + energy_j`` and
  ``latency_ms < deadline_s`` are reported, not silently computed.

Dimensions come from three declared sources of truth (see
:mod:`repro.check.unit_maps`): the unit annotation names (``-> Seconds``,
``-> list[Watts]``), the package-wide unit-suffix naming convention
(``latency_s``, ``energy_mj``, ``bandwidth_bytes_per_s``,
``r_passive_c_per_w``), and curated per-name maps.  Anything the checker
cannot prove stays *unknown* and propagates silently: the pass is
deliberately conservative, and a finding means a genuine contradiction
between two declared units.

Rules (all static; zero runtime cost to hot paths):

* **UNIT001** — addition/subtraction across dimensions or scales.
* **UNIT002** — comparison (``<``/``==``/``min``/``max``) across
  dimensions or scales.
* **UNIT003** — a return value contradicting the unit declared by the
  function's name suffix or unit return annotation.
* **UNIT004** — the same scale conversion applied twice
  (``value * MILLI * MILLI``).
* **UNIT006** — an accumulator mixing dimensionless and dimensioned
  increments.
* **UNIT007** — a unit-suffixed name bound to a value of a contradicting
  dimension (``energy_j = power_w``).
* **UNIT008** — a dimensioned value escaping a public function whose
  signature declares no unit (no suffix, no unit annotation).

The annotation names are plain ``float`` at runtime, so a call of one
(``Seconds(latency_ms)``) is evaluated like ``float(...)``: it keeps its
argument's unit, and UNIT003 reports it under ``-> Seconds``.

Suppression uses the shared comment forms (:mod:`repro.check.suppress`):
same-line ``# repro: allow[UNIT001]`` or file-level
``# repro: allow-file[UNIT007]``.
"""

from __future__ import annotations

# repro: allow-file[ARCH003] presentation scales are exact constants (1.0,
# 1e-3, ...) compared identically by design, never measured floats.

import ast
from dataclasses import dataclass, replace
from pathlib import Path

from repro.check import astutil
from repro.check.findings import Finding, Severity
from repro.check.suppress import SuppressionIndex
from repro.check.unit_maps import (
    AMBIGUOUS_BARE_TOKENS,
    ANNOTATION_DIMS,
    CALL_RETURNS,
    COMPOUND_SUFFIXES,
    CONVERSION_LITERALS,
    DIMENSIONLESS_NAMES,
    DIMENSIONLESS_TOKENS,
    NON_QUANTITY_NAMES,
    PRESERVING_CALLS,
    SCALE_CONSTANTS,
    UNIT_TOKENS,
)
from repro.core.dimension import DIMENSIONLESS, Dim

RULES: dict[str, tuple[Severity, str]] = {
    "UNIT001": (Severity.ERROR,
                "addition/subtraction across dimensions or scales"),
    "UNIT002": (Severity.ERROR, "comparison across dimensions or scales"),
    "UNIT003": (Severity.ERROR,
                "return value contradicts the declared unit"),
    "UNIT004": (Severity.ERROR, "same scale conversion applied twice"),
    "UNIT006": (Severity.ERROR,
                "accumulator mixes dimensionless and dimensioned values"),
    "UNIT007": (Severity.ERROR,
                "unit-suffixed name bound to a contradicting dimension"),
    "UNIT008": (Severity.WARNING,
                "dimensioned value escapes a public API without a declared "
                "unit"),
}

_SI_PREFIXES = {1.0: "", 1e-3: "m", 1e-6: "u", 1e-9: "n",
                1e3: "k", 1e6: "M", 1e9: "G", 1e12: "T",
                1024.0: "Ki", 1024.0**2: "Mi", 1024.0**3: "Gi"}


@dataclass(frozen=True)
class AbsVal:
    """Abstract value: what the checker knows about one expression.

    ``dim is None`` means the dimension is unknown (propagates silently);
    ``scale is None`` means the dimension is known but the presentation
    scale is not (e.g. after scaling by a bare literal).  ``literal``
    marks pure numeric literals, which are polymorphic scalars: they
    multiply anything and add to nothing in particular.  ``convs``
    records the named scale conversions applied so far (for UNIT004).
    """

    dim: Dim | None = None
    scale: float | None = None
    literal: bool = False
    convs: frozenset[str] = frozenset()

    @property
    def known(self) -> bool:
        return self.dim is not None


UNKNOWN = AbsVal()
LITERAL = AbsVal(literal=True)


def unit_label(dim: Dim, scale: float | None) -> str:
    """Readable unit for messages: (TIME, 1e-3) -> "ms"."""
    symbol = str(dim)
    if scale is None or scale == 1.0:
        return symbol
    prefix = _SI_PREFIXES.get(scale)
    if prefix is not None and symbol in ("s", "J", "W", "Hz", "B", "MAC"):
        return f"{prefix}{symbol}"
    return f"{scale:g}*{symbol}"


def _label(value: AbsVal) -> str:
    return unit_label(value.dim, value.scale) if value.known else "?"


def parse_name_dims(name: str) -> tuple[Dim, float | None] | None:
    """Dimension and scale declared by an identifier's unit suffix.

    Implements the package naming convention: the trailing token names a
    unit (``latency_s``, ``energy_mj``), optionally divided by further
    units with ``per`` (``bandwidth_bytes_per_s``, ``r_passive_c_per_w``).
    Returns ``None`` for names that declare nothing.
    """
    lower = name.lower()
    if lower in NON_QUANTITY_NAMES or lower.strip("_") in NON_QUANTITY_NAMES:
        return None
    for compound, dims in COMPOUND_SUFFIXES.items():
        if lower == compound or lower.endswith("_" + compound):
            return dims
    tokens = [token for token in lower.split("_") if token]
    if not tokens:
        return None
    last = tokens[-1]
    if last in DIMENSIONLESS_TOKENS:
        return (DIMENSIONLESS, 1.0)
    if last not in UNIT_TOKENS:
        return None
    if len(tokens) == 1 and last in AMBIGUOUS_BARE_TOKENS:
        return None
    # collect the trailing U (_per_U)* chain, right to left
    units = [last]
    index = len(tokens) - 1
    while index - 2 >= 0 and tokens[index - 1] == "per" \
            and tokens[index - 2] in UNIT_TOKENS:
        units.insert(0, tokens[index - 2])
        index -= 2
    dim, scale = UNIT_TOKENS[units[0]]
    for denominator in units[1:]:
        den_dim, den_scale = UNIT_TOKENS[denominator]
        dim = dim / den_dim
        scale = scale / den_scale
    return (dim, scale)


def _suffix_val(name: str) -> AbsVal:
    if name in DIMENSIONLESS_NAMES:
        return AbsVal(DIMENSIONLESS, 1.0)
    parsed = parse_name_dims(name)
    if parsed is None:
        return UNKNOWN
    return AbsVal(parsed[0], parsed[1])


def _scale_const(node: ast.expr) -> tuple[str, float] | None:
    """Recognize a named scale constant (MILLI, MEBI, quantity.GIGA, ...)."""
    if isinstance(node, ast.Name) and node.id in SCALE_CONSTANTS:
        return node.id, SCALE_CONSTANTS[node.id]
    if isinstance(node, ast.Attribute) and node.attr in SCALE_CONSTANTS:
        return node.attr, SCALE_CONSTANTS[node.attr]
    return None


_CONTAINER_ANNOTATIONS = ("list", "List", "tuple", "Tuple", "Sequence",
                          "Iterable", "Iterator", "Optional")


def _annotation_dims(node: ast.expr | None) -> tuple[Dim, float] | None:
    """Dimension declared by a unit annotation name, if any.

    Homogeneous containers declare the element unit: ``list[Seconds]``
    means "each element is a time in seconds".
    """
    if node is None:
        return None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None)
        if base_name in _CONTAINER_ANNOTATIONS:
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_dims(inner)
        return None
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.strip().split(".")[-1]
    if name in ANNOTATION_DIMS:
        return (ANNOTATION_DIMS[name], 1.0)
    return None


def _merge(a: AbsVal, b: AbsVal) -> AbsVal:
    """Join two branch values: keep only what both agree on."""
    if a == b:
        return a
    if a.known and b.known and a.dim == b.dim:
        scale = a.scale if a.scale == b.scale else None
        return AbsVal(a.dim, scale)
    return UNKNOWN


@dataclass
class _FuncCtx:
    """Expectation for the function currently being analyzed."""

    name: str
    expected: tuple[Dim, float | None] | None
    public: bool
    lineno: int = 0


class _Analyzer:
    """One module's abstract interpretation, producing findings."""

    def __init__(self, display: str, suppressions: SuppressionIndex):
        self.display = display
        self.suppressions = suppressions
        self.findings: list[Finding] = []

    # -- reporting -------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if self.suppressions.allows(rule, lineno):
            return
        self.findings.append(Finding(
            rule, RULES[rule][0], f"{self.display}:{lineno}", message))

    # -- entry point -----------------------------------------------------
    def check_module(self, tree: ast.Module) -> None:
        env: dict[str, AbsVal] = {}
        self.exec_block(tree.body, env, ctx=None)

    # -- statements ------------------------------------------------------
    def exec_block(self, stmts: list[ast.stmt], env: dict[str, AbsVal],
                   ctx: _FuncCtx | None) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, env, ctx)

    def exec_stmt(self, stmt: ast.stmt, env: dict[str, AbsVal],
                  ctx: _FuncCtx | None) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.check_function(stmt, env)
        elif isinstance(stmt, ast.ClassDef):
            class_env = dict(env)
            self.exec_block(stmt.body, class_env, ctx=None)
        elif isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self.bind(target, value, env, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            declared = _annotation_dims(stmt.annotation)
            value = self.eval(stmt.value, env) if stmt.value else UNKNOWN
            if declared is not None and not value.known:
                value = AbsVal(declared[0], declared[1])
            self.bind(stmt.target, value, env, stmt, declared=declared)
        elif isinstance(stmt, ast.AugAssign):
            self.exec_augassign(stmt, env)
        elif isinstance(stmt, ast.Return):
            self.exec_return(stmt, env, ctx)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            branch_a, branch_b = dict(env), dict(env)
            self.exec_block(stmt.body, branch_a, ctx)
            self.exec_block(stmt.orelse, branch_b, ctx)
            self.merge_envs(env, branch_a, branch_b)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter, env)
            self.bind_unknown(stmt.target, env)
            body_env = dict(env)
            self.exec_block(stmt.body, body_env, ctx)
            self.exec_block(stmt.orelse, body_env, ctx)
            self.merge_envs(env, env, body_env)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
            body_env = dict(env)
            self.exec_block(stmt.body, body_env, ctx)
            self.exec_block(stmt.orelse, body_env, ctx)
            self.merge_envs(env, env, body_env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.bind_unknown(item.optional_vars, env)
            self.exec_block(stmt.body, env, ctx)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body, env, ctx)
            for handler in stmt.handlers:
                if handler.name:
                    env[handler.name] = UNKNOWN
                self.exec_block(handler.body, env, ctx)
            self.exec_block(stmt.orelse, env, ctx)
            self.exec_block(stmt.finalbody, env, ctx)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
            if stmt.msg is not None:
                self.eval(stmt.msg, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # imports, pass, break, continue, global, nonlocal: nothing to do

    def merge_envs(self, env: dict[str, AbsVal], branch_a: dict[str, AbsVal],
                   branch_b: dict[str, AbsVal]) -> None:
        for name in set(branch_a) | set(branch_b):
            left = branch_a.get(name, UNKNOWN)
            right = branch_b.get(name, UNKNOWN)
            env[name] = _merge(left, right)

    def bind_unknown(self, target: ast.expr, env: dict[str, AbsVal]) -> None:
        """Bind a target with no evaluable source (loop/with targets).

        The name's own suffix still declares its unit: ``for latency_ms in
        samples`` introduces a millisecond value.
        """
        if isinstance(target, ast.Name):
            env[target.id] = _suffix_val(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.bind_unknown(element, env)
        elif isinstance(target, ast.Starred):
            self.bind_unknown(target.value, env)

    def bind(self, target: ast.expr, value: AbsVal, env: dict[str, AbsVal],
             stmt: ast.stmt,
             declared: tuple[Dim, float] | None = None) -> None:
        """Bind one assignment target, checking its suffix contract."""
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, (ast.Tuple, ast.List)) \
                    and len(stmt.value.elts) == len(target.elts):
                for element, sub in zip(target.elts, stmt.value.elts):
                    self.bind(element, self.eval(sub, env), env, stmt)
            else:
                for element in target.elts:
                    self.bind_unknown(element, env)
            return
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        elif isinstance(target, ast.Starred):
            self.bind_unknown(target.value, env)
            return
        else:  # subscripts etc.
            return
        suffix = _suffix_val(name)
        expected = declared if declared is not None else (
            (suffix.dim, suffix.scale) if suffix.known else None)
        conflict = False
        if expected is not None and value.known:
            exp_dim, exp_scale = expected
            if value.dim != exp_dim or (
                    exp_scale is not None and value.scale is not None
                    and value.scale != exp_scale):
                conflict = True
                self._emit("UNIT007", stmt,
                           f"'{name}' declares {unit_label(exp_dim, exp_scale)} "
                           f"but is bound to a {_label(value)} value")
        if isinstance(target, ast.Name):
            if value.known and not conflict:
                env[name] = value
            elif expected is not None:
                # after a contradiction, recover to the name's declared
                # unit so one defect yields one finding, not a cascade
                env[name] = AbsVal(expected[0], expected[1])
            else:
                env[name] = value

    def exec_augassign(self, stmt: ast.AugAssign, env: dict[str, AbsVal]) -> None:
        operand = self.eval(stmt.value, env)
        target_name = None
        if isinstance(stmt.target, ast.Name):
            target_name = stmt.target.id
            current = env.get(target_name) or _suffix_val(target_name)
        elif isinstance(stmt.target, ast.Attribute):
            current = _suffix_val(stmt.target.attr)
        else:
            current = UNKNOWN
        if isinstance(stmt.op, (ast.Add, ast.Sub)):
            if current.known and operand.known:
                if current.dim != operand.dim:
                    rule = "UNIT006" if (current.dim.is_dimensionless
                                         or operand.dim.is_dimensionless) \
                        else "UNIT001"
                    self._emit(rule, stmt,
                               f"accumulator of {_label(current)} updated "
                               f"with a {_label(operand)} value")
                elif current.scale is not None and operand.scale is not None \
                        and current.scale != operand.scale:
                    self._emit("UNIT001", stmt,
                               f"accumulator of {_label(current)} updated "
                               f"with a {_label(operand)} value")
            result = current if current.known else operand
        elif isinstance(stmt.op, ast.Mult):
            result = self._mult(current, operand)
        elif isinstance(stmt.op, (ast.Div, ast.FloorDiv)):
            result = self._div(current, operand)
        else:
            result = UNKNOWN
        if target_name is not None:
            env[target_name] = result

    def exec_return(self, stmt: ast.Return, env: dict[str, AbsVal],
                    ctx: _FuncCtx | None) -> None:
        if stmt.value is None or ctx is None:
            return
        value = self.eval(stmt.value, env)
        if not value.known:
            return
        if ctx.expected is not None:
            exp_dim, exp_scale = ctx.expected
            if value.dim != exp_dim:
                self._emit("UNIT003", stmt,
                           f"'{ctx.name}' declares "
                           f"{unit_label(exp_dim, exp_scale)} but returns a "
                           f"{_label(value)} value")
            elif exp_scale is not None and value.scale is not None \
                    and value.scale != exp_scale:
                self._emit("UNIT003", stmt,
                           f"'{ctx.name}' declares "
                           f"{unit_label(exp_dim, exp_scale)} but returns a "
                           f"{_label(value)} value")
        elif ctx.public and not value.dim.is_dimensionless:
            self._emit("UNIT008", stmt,
                       f"public '{ctx.name}' returns a {_label(value)} value "
                       "but declares no unit (add a unit suffix or a "
                       "unit return annotation)")

    # -- functions -------------------------------------------------------
    def check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                       outer_env: dict[str, AbsVal]) -> None:
        env = dict(outer_env)
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            declared = _annotation_dims(arg.annotation)
            suffix = _suffix_val(arg.arg)
            if declared is not None and suffix.known \
                    and suffix.dim != declared[0]:
                self._emit("UNIT007", arg,
                           f"parameter '{arg.arg}' declares "
                           f"{unit_label(*declared)} by annotation but "
                           f"{_label(suffix)} by suffix")
            if suffix.known:
                env[arg.arg] = suffix
            elif declared is not None:
                env[arg.arg] = AbsVal(declared[0], declared[1])
            else:
                env[arg.arg] = UNKNOWN
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None:
                env[vararg.arg] = UNKNOWN
        for default in (*args.defaults, *args.kw_defaults):
            if default is not None:
                self.eval(default, outer_env)
        annotation = _annotation_dims(node.returns)
        suffix_expect = parse_name_dims(node.name)
        if suffix_expect is not None and suffix_expect[0].is_dimensionless \
                and annotation is not None:
            # a dimensionless name token ("runs", "count") is a weaker
            # declaration than an explicit unit annotation
            suffix_expect = None
        if annotation is not None and suffix_expect is not None \
                and suffix_expect[0] != annotation[0]:
            self._emit("UNIT007", node,
                       f"'{node.name}' declares {unit_label(*annotation)} by "
                       f"annotation but {unit_label(*suffix_expect)} by suffix")
        expected = suffix_expect if suffix_expect is not None else annotation
        ctx = _FuncCtx(
            name=node.name,
            expected=expected,
            public=not node.name.startswith("_"),
            lineno=node.lineno,
        )
        self.exec_block(node.body, env, ctx)

    # -- expressions -----------------------------------------------------
    def eval(self, node: ast.expr, env: dict[str, AbsVal]) -> AbsVal:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                    node.value, (int, float)):
                return UNKNOWN
            return LITERAL
        if isinstance(node, ast.Name):
            const = _scale_const(node)
            if const is not None:
                return LITERAL
            if node.id in env:
                return env[node.id]
            return _suffix_val(node.id)
        if isinstance(node, ast.Attribute):
            self.eval(node.value, env)
            if _scale_const(node) is not None:
                return LITERAL
            return _suffix_val(node.attr)
        if isinstance(node, ast.BinOp):
            return self.eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            value = self.eval(node.operand, env)
            return value if isinstance(node.op, (ast.USub, ast.UAdd)) else UNKNOWN
        if isinstance(node, ast.Compare):
            return self.eval_compare(node, env)
        if isinstance(node, ast.Call):
            return self.eval_call(node, env)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return _merge(self.eval(node.body, env),
                          self.eval(node.orelse, env))
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value, env)
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value, env)
            self.bind(node.target, value, env, node)  # type: ignore[arg-type]
            return value
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            elements = [self.eval(element, env) for element in node.elts]
            known = [e for e in elements if e.known]
            if known and len(known) == len(elements) \
                    and all(e.dim == known[0].dim for e in known):
                scale = known[0].scale if all(
                    e.scale == known[0].scale for e in known) else None
                return AbsVal(known[0].dim, scale)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.eval(key, env)
            for value in node.values:
                self.eval(value, env)
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            child = dict(env)
            for generator in node.generators:
                self.eval(generator.iter, child)
                self.bind_unknown(generator.target, child)
                for condition in generator.ifs:
                    self.eval(condition, child)
            element = self.eval(node.elt, child)
            return AbsVal(element.dim, element.scale) if element.known else UNKNOWN
        if isinstance(node, ast.DictComp):
            child = dict(env)
            for generator in node.generators:
                self.eval(generator.iter, child)
                self.bind_unknown(generator.target, child)
            self.eval(node.key, child)
            self.eval(node.value, child)
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            self.eval(node.value, env)
            if isinstance(node.slice, ast.Constant) \
                    and isinstance(node.slice.value, str):
                return _suffix_val(node.slice.value)
            if not isinstance(node.slice, ast.Slice):
                self.eval(node.slice, env)
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            child = dict(env)
            for arg in (*node.args.posonlyargs, *node.args.args,
                        *node.args.kwonlyargs):
                child[arg.arg] = UNKNOWN
            self.eval(node.body, child)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            self.eval(node.value, env)
            return UNKNOWN
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.eval(value.value, env)
            return UNKNOWN
        if isinstance(node, ast.Await):
            return self.eval(node.value, env)
        return UNKNOWN

    # -- arithmetic ------------------------------------------------------
    def _convert(self, value: AbsVal, tag: str, factor: float,
                 node: ast.AST) -> AbsVal:
        if tag in value.convs:
            self._emit("UNIT004", node,
                       f"scale conversion {tag} applied twice to one value")
        if tag.startswith("*"):
            scale = None if value.scale is None else value.scale / factor
        else:
            scale = None if value.scale is None else value.scale * factor
        return replace(value, scale=scale, convs=value.convs | {tag})

    def _mult(self, left: AbsVal, right: AbsVal) -> AbsVal:
        if left.literal and right.literal:
            return LITERAL
        if left.literal or right.literal:
            known = right if left.literal else left
            if not known.known:
                return UNKNOWN
            return AbsVal(known.dim, known.scale)
        if left.known and right.known:
            scale = (left.scale * right.scale
                     if left.scale is not None and right.scale is not None
                     else None)
            return AbsVal(left.dim * right.dim, scale)
        return UNKNOWN

    def _div(self, left: AbsVal, right: AbsVal) -> AbsVal:
        if left.literal and right.literal:
            return LITERAL
        if right.literal:
            return AbsVal(left.dim, left.scale) if left.known else UNKNOWN
        if left.literal:
            if not right.known:
                return UNKNOWN
            return AbsVal(DIMENSIONLESS / right.dim, None)
        if left.known and right.known:
            scale = (left.scale / right.scale
                     if left.scale is not None and right.scale is not None
                     else None)
            return AbsVal(left.dim / right.dim, scale)
        return UNKNOWN

    def eval_binop(self, node: ast.BinOp, env: dict[str, AbsVal]) -> AbsVal:
        # unit conversions by named scale constant are tracked exactly
        if isinstance(node.op, ast.Mult):
            const = _scale_const(node.right)
            if const is not None and _scale_const(node.left) is None:
                return self._convert(self.eval(node.left, env),
                                     f"*{const[0]}", const[1], node)
            const = _scale_const(node.left)
            if const is not None:
                return self._convert(self.eval(node.right, env),
                                     f"*{const[0]}", const[1], node)
        if isinstance(node.op, ast.Div):
            const = _scale_const(node.right)
            if const is not None:
                return self._convert(self.eval(node.left, env),
                                     f"/{const[0]}", const[1], node)
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left.known and right.known:
                if left.dim != right.dim:
                    self._emit("UNIT001", node,
                               f"cannot {'add' if isinstance(node.op, ast.Add) else 'subtract'} "
                               f"{_label(left)} and {_label(right)}")
                    return UNKNOWN
                if left.scale is not None and right.scale is not None \
                        and left.scale != right.scale:
                    self._emit("UNIT001", node,
                               f"mixed scales: {_label(left)} and "
                               f"{_label(right)} in one sum")
                    return AbsVal(left.dim, None)
                scale = left.scale if left.scale is not None else right.scale
                return AbsVal(left.dim, scale)
            if left.known or right.known:
                known = left if left.known else right
                return AbsVal(known.dim, known.scale)
            if left.literal and right.literal:
                return LITERAL
            return UNKNOWN
        if isinstance(node.op, ast.Mult):
            value = self._mult(left, right)
            if value.literal:
                return value
            # scaling by a bare conversion-looking literal blurs the scale
            for operand, abstract in ((node.left, left), (node.right, right)):
                if abstract.literal and isinstance(operand, ast.Constant) \
                        and float(operand.value) in CONVERSION_LITERALS \
                        and value.known:
                    return AbsVal(value.dim, None)
            return value
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            value = self._div(left, right)
            if isinstance(node.right, ast.Constant) and right.literal \
                    and value.known and not value.literal \
                    and float(node.right.value) in CONVERSION_LITERALS:
                return AbsVal(value.dim, None)
            return value
        if isinstance(node.op, ast.Mod):
            return AbsVal(left.dim, left.scale) if left.known else UNKNOWN
        if isinstance(node.op, ast.Pow):
            if isinstance(node.right, ast.Constant) \
                    and isinstance(node.right.value, int) and left.known:
                exponent = node.right.value
                scale = (left.scale ** exponent
                         if left.scale is not None else None)
                return AbsVal(left.dim ** exponent, scale)
            if left.literal and right.literal:
                return LITERAL
            return UNKNOWN
        return UNKNOWN

    def eval_compare(self, node: ast.Compare, env: dict[str, AbsVal]) -> AbsVal:
        operands = [self.eval(node.left, env)]
        operands += [self.eval(comparator, env)
                     for comparator in node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                                   ast.Eq, ast.NotEq)):
                continue
            if left.known and right.known:
                if left.dim != right.dim:
                    self._emit("UNIT002", node,
                               f"comparison between {_label(left)} and "
                               f"{_label(right)}")
                elif left.scale is not None and right.scale is not None \
                        and left.scale != right.scale:
                    self._emit("UNIT002", node,
                               f"comparison between {_label(left)} and "
                               f"{_label(right)} (mixed scales)")
        return UNKNOWN

    # -- calls -----------------------------------------------------------
    def eval_call(self, node: ast.Call, env: dict[str, AbsVal]) -> AbsVal:
        argvals = [self.eval(argument, env) for argument in node.args]
        for keyword in node.keywords:
            value = self.eval(keyword.value, env)
            if keyword.arg is None or not value.known:
                continue
            expected = _suffix_val(keyword.arg)
            if expected.known:
                if value.dim != expected.dim:
                    self._emit("UNIT007", node,
                               f"keyword '{keyword.arg}' declares "
                               f"{_label(expected)} but receives a "
                               f"{_label(value)} value")
                elif expected.scale is not None and value.scale is not None \
                        and value.scale != expected.scale:
                    self._emit("UNIT007", node,
                               f"keyword '{keyword.arg}' declares "
                               f"{_label(expected)} but receives a "
                               f"{_label(value)} value")
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            self.eval(func.value, env)
        if name is None:
            self.eval(func, env)
            return UNKNOWN
        if name in CALL_RETURNS:
            mapped = CALL_RETURNS[name]
            if mapped is None:
                return UNKNOWN
            return AbsVal(mapped[0], mapped[1])
        if name in PRESERVING_CALLS:
            known = [value for value in argvals if value.known]
            if name in ("min", "max", "maximum", "minimum") \
                    and len(known) >= 2:
                first = known[0]
                for other in known[1:]:
                    if other.dim != first.dim:
                        self._emit("UNIT002", node,
                                   f"{name}() across {_label(first)} and "
                                   f"{_label(other)}")
                    elif first.scale is not None and other.scale is not None \
                            and first.scale != other.scale:
                        self._emit("UNIT002", node,
                                   f"{name}() across {_label(first)} and "
                                   f"{_label(other)} (mixed scales)")
            if known:
                return AbsVal(known[0].dim, known[0].scale)
            return UNKNOWN
        suffix = _suffix_val(name)
        if suffix.known:
            return suffix
        return UNKNOWN


def check_module(module: astutil.SourceModule) -> list[Finding]:
    """Unit-check one pre-parsed module."""
    analyzer = _Analyzer(module.display, module.suppressions)
    analyzer.check_module(module.tree)
    return analyzer.findings


def check_source(source: str, path: str) -> list[Finding]:
    """Unit-check one module's source text."""
    return check_module(astutil.load_source(source, path))


def check_paths(paths: list[Path]) -> list[Finding]:
    findings: list[Finding] = []
    for path in sorted(paths):
        findings += check_source(path.read_text(), str(path))
    return findings


#: re-exported so existing callers keep working; astutil owns discovery.
package_root = astutil.package_root


def run(root: Path | None = None,
        modules: list[astutil.SourceModule] | None = None) -> list[Finding]:
    """Units pass entry point: unit-check every module under ``root``.

    ``modules`` shares a pre-parsed package (one parse for all source passes).
    """
    if modules is None:
        modules = astutil.load_package(root)
    return [finding for module in modules for finding in check_module(module)]
