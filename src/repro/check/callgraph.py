"""Package-wide call graph for the interprocedural check passes.

The graph is built purely from source — no imports are executed — so
resolution is necessarily conservative.  A call site resolves through a
ladder of precision tiers, stopping at the first that matches:

1. a nested ``def`` visible in an enclosing scope of the caller,
2. a function or method defined in the caller's own module
   (``self.m()`` resolves against the caller's own class first),
3. a name imported with ``from mod import name``,
4. an attribute call through a module alias (``import a.b as c; c.f()``),
5. a method call on a *module-level instance* whose class is known
   (``CACHE = MemoCache(); CACHE.get_or_build(...)`` resolves to
   ``MemoCache.get_or_build``),
6. a unique match anywhere in the package for the bare name,
7. otherwise the full candidate set of same-named functions (or nothing,
   for names the package never defines — builtins, stdlib).

Besides direct calls, the graph records **function-reference edges**:
passing ``_run_cell`` to ``pool.map`` or a ``build`` closure to
``get_or_build`` creates an edge, because on a parallel path the callee
runs even though no call expression names it.

Data-driven *subscript dispatch* resolves into candidate-set edges:

* ``PASSES[name]()`` where ``PASSES`` is a module-level dict literal of
  resolvable function references — the call targets every value.
* ``self._factories[key]()`` in a registry: a method that stores one of
  its own parameters into ``self.<attr>[...]`` marks ``<attr>`` as a
  dispatch container, every call site of that method contributes the
  function value it registers (including values built by a helper that
  returns a nested ``def``, and loop variables bound to literal tuples of
  function names), and the subscript call targets the whole candidate
  set.  Resolution is context-insensitive — all factories registered on a
  class are candidates at every dispatch site of that class — which is
  conservative in the right direction for reachability analysis.

Remaining blind spots: values registered as ``lambda``\\ s (the experiment
generators in :mod:`repro.harness.registry`) have no :class:`FunctionNode`,
and imports inside control-flow blocks bind nothing (``def``\\ s there do
index); both are covered by the ARCH rules and the runtime stress tests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.check import astutil
from repro.check.astutil import SourceModule


@dataclass
class FunctionNode:
    """One function, method, or nested def in the package.

    ``fid`` is the stable identity used everywhere else:
    ``"engine/cache.py:MemoCache.get_or_build"`` — display path, colon,
    dotted qualname within the module.
    """

    fid: str
    name: str
    qualname: str
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None
    #: own nodes from the module index (nested defs' bodies left out).
    nodes: list[ast.AST] = field(default_factory=list, repr=False)
    #: direct nested defs by bare name (resolution tier 1).
    nested: dict[str, "FunctionNode"] = field(default_factory=dict,
                                              repr=False)
    calls: list["CallSite"] = field(default_factory=list)
    refs: list["CallSite"] = field(default_factory=list)

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass(frozen=True)
class CallSite:
    """One resolved edge: the call (or reference) expression and targets."""

    node: ast.AST
    lineno: int
    targets: tuple[str, ...]
    via_reference: bool = False


@dataclass
class ModuleNode:
    """Per-module namespace facts the resolver consults."""

    module: SourceModule
    functions: dict[str, FunctionNode] = field(default_factory=dict)
    import_aliases: dict[str, str] = field(default_factory=dict)
    imported_names: dict[str, tuple[str, str]] = field(default_factory=dict)
    instance_classes: dict[str, str] = field(default_factory=dict)
    global_containers: dict[str, int] = field(default_factory=dict)
    #: module-level dict literals of function refs: NAME -> candidate fids.
    dispatch_tables: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: module-level loop vars bound to literal tuples of function names.
    loop_functions: dict[str, tuple[str, ...]] = field(default_factory=dict)


_CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)


def _block_statements(stmt: ast.stmt):
    """The statements in a compound statement's blocks, in source order."""
    for name in ("body", "handlers", "cases", "orelse", "finalbody"):
        for item in getattr(stmt, name, ()):
            if isinstance(item, (ast.excepthandler, ast.match_case)):
                yield from item.body
            else:
                yield item


def _module_name(module: SourceModule) -> str:
    """Dotted package-relative module name: engine/cache.py -> engine.cache."""
    parts = list(module.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class CallGraph:
    """The package call graph: nodes per function, resolved edges per site."""

    def __init__(self, modules: list[SourceModule]) -> None:
        self.modules = modules
        self.by_module: dict[str, ModuleNode] = {}
        self.by_name: dict[str, list[FunctionNode]] = {}
        self.functions: dict[str, FunctionNode] = {}
        self._module_by_dotted: dict[str, ModuleNode] = {}
        #: (class name, attr) -> candidate fids for `self.<attr>[key]()`.
        self.dispatch_targets: dict[tuple[str, str], set[str]] = {}
        for mod in modules:
            self._index_module(mod)
        self._collect_dispatch()
        for mnode in self.by_module.values():
            self._resolve_module(mnode)

    # -- indexing ----------------------------------------------------------
    def _index_module(self, mod: SourceModule) -> None:
        mnode = ModuleNode(module=mod)
        self.by_module[mod.display] = mnode
        self._module_by_dotted[_module_name(mod)] = mnode
        for stmt in mod.tree.body:
            self._index_stmt(mnode, stmt, prefix="", cls=None, parent=None)
        for stmt in mod.tree.body:
            self._index_module_assign(mnode, stmt)

    def _index_stmt(self, mnode: ModuleNode, stmt: ast.stmt, prefix: str,
                    cls: str | None, parent: FunctionNode | None) -> None:
        """Index one statement; ``parent`` is the def whose body holds it."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}{stmt.name}"
            fnode = FunctionNode(
                fid=f"{mnode.module.display}:{qual}",
                name=stmt.name, qualname=qual, module=mnode.module,
                node=stmt, cls=cls, nodes=mnode.module.index.own[stmt])
            mnode.functions[qual] = fnode
            self.functions[fnode.fid] = fnode
            self.by_name.setdefault(stmt.name, []).append(fnode)
            if parent is not None:
                parent.nested[stmt.name] = fnode
            for inner in stmt.body:
                self._index_stmt(mnode, inner, prefix=f"{qual}.", cls=cls,
                                 parent=fnode)
        elif isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                self._index_stmt(mnode, inner, prefix=f"{stmt.name}.",
                                 cls=stmt.name, parent=None)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._index_import(mnode, stmt)
        else:  # if/for/while/try/with/match: defs and classes, not imports
            for inner in _block_statements(stmt):
                if not isinstance(inner, (ast.Import, ast.ImportFrom)):
                    self._index_stmt(mnode, inner, prefix, cls, parent)

    def _index_import(self, mnode: ModuleNode,
                      stmt: ast.Import | ast.ImportFrom) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                if target.startswith("repro.") or target == "repro":
                    mnode.import_aliases[bound] = target.removeprefix(
                        "repro.").removeprefix("repro")
        else:
            if not stmt.module or not stmt.module.startswith("repro"):
                return
            source = stmt.module.removeprefix("repro").lstrip(".")
            for alias in stmt.names:
                bound = alias.asname or alias.name
                mnode.imported_names[bound] = (source, alias.name)

    def _index_module_assign(self, mnode: ModuleNode, stmt: ast.stmt) -> None:
        """Record ``NAME = ClassName(...)`` instances and mutable containers."""
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        value = stmt.value
        if value is None:
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Call):
                cname = astutil.call_name(value)
                if cname and (cname in mnode.functions
                              or self._class_known(mnode, cname)):
                    mnode.instance_classes[target.id] = cname
                if cname in ("dict", "list", "set", "defaultdict",
                             "OrderedDict", "Counter", "deque"):
                    mnode.global_containers[target.id] = stmt.lineno
            elif isinstance(value, _CONTAINER_NODES):
                mnode.global_containers[target.id] = stmt.lineno

    def _class_known(self, mnode: ModuleNode, cname: str) -> bool:
        if any(f.cls == cname for f in mnode.functions.values()):
            return True
        if cname in mnode.imported_names:
            src, orig = mnode.imported_names[cname]
            target = self._module_by_dotted.get(src)
            if target is not None:
                return any(f.cls == orig for f in target.functions.values())
        return any(f.cls == cname for f in self.functions.values())

    # -- dispatch collection -----------------------------------------------
    def _collect_dispatch(self) -> None:
        """Populate dispatch tables before edge resolution runs.

        Three sweeps: module-level facts (dict-literal tables, loop-bound
        function names), registrar methods (``self.<attr>[k] = param``),
        then every call site of a registrar — module-level registration
        loops included — harvesting the function values registered.
        """
        for mnode in self.by_module.values():
            for stmt in mnode.module.tree.body:
                self._index_dispatch_table(mnode, stmt)
                self._index_loop_functions(mnode, stmt)
        self._registrars = self._find_registrars()
        for mnode in self.by_module.values():
            for call, fnode in self._all_calls(mnode):
                self._harvest_registration(mnode, fnode, call)

    def _index_dispatch_table(self, mnode: ModuleNode, stmt: ast.stmt) -> None:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if not isinstance(stmt.value, ast.Dict):
            return
        fids: list[str] = []
        for value in stmt.value.values:
            fids.extend(self._module_level_ref(mnode, value))
        if not fids:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                mnode.dispatch_tables[target.id] = tuple(dict.fromkeys(fids))

    def _index_loop_functions(self, mnode: ModuleNode, stmt: ast.stmt) -> None:
        """``for _factory, _x in ((f1, ...), (f2, ...)):`` binds ``_factory``
        to the candidate set {f1, f2, ...} for registration harvesting."""
        if not isinstance(stmt, ast.For) or not isinstance(
                stmt.iter, (ast.Tuple, ast.List)):
            return
        targets = (stmt.target.elts if isinstance(stmt.target, ast.Tuple)
                   else [stmt.target])
        for pos, target in enumerate(targets):
            if not isinstance(target, ast.Name):
                continue
            fids: list[str] = []
            for element in stmt.iter.elts:
                if isinstance(element, (ast.Tuple, ast.List)):
                    item = (element.elts[pos] if pos < len(element.elts)
                            else None)
                else:
                    item = element if len(targets) == 1 else None
                if item is not None:
                    fids.extend(self._module_level_ref(mnode, item))
            if fids:
                mnode.loop_functions[target.id] = tuple(dict.fromkeys(fids))

    def _module_level_ref(self, mnode: ModuleNode,
                          expr: ast.expr) -> tuple[str, ...]:
        """Resolve a function-valued expression in module-level scope."""
        if isinstance(expr, ast.Name):
            own = mnode.functions.get(expr.id)
            if own is not None:
                return (own.fid,)
            if expr.id in mnode.imported_names:
                src, orig = mnode.imported_names[expr.id]
                target = self._module_by_dotted.get(src)
                if target is not None and orig in target.functions:
                    return (target.functions[orig].fid,)
        elif isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            base = expr.value.id
            dotted = None
            if base in mnode.import_aliases:
                dotted = mnode.import_aliases[base]
            elif base in mnode.imported_names:  # `from pkg import submodule`
                src, orig = mnode.imported_names[base]
                dotted = f"{src}.{orig}" if src else orig
            if dotted is not None:
                target = self._module_by_dotted.get(dotted)
                if target is not None and expr.attr in target.functions:
                    return (target.functions[expr.attr].fid,)
        return ()

    def _find_registrars(self) -> dict[str, list[tuple[str, str]]]:
        """Methods that store one of their parameters into a subscripted
        ``self`` attribute: fid -> [(attr name, parameter name)]."""
        registrars: dict[str, list[tuple[str, str]]] = {}
        for fnode in self.functions.values():
            if fnode.cls is None:
                continue
            params = {a.arg for a in fnode.node.args.args
                      + fnode.node.args.kwonlyargs}
            for node in fnode.nodes:
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Subscript)):
                    continue
                container = node.targets[0].value
                if (isinstance(container, ast.Attribute)
                        and isinstance(container.value, ast.Name)
                        and container.value.id == "self"
                        and isinstance(node.value, ast.Name)
                        and node.value.id in params):
                    registrars.setdefault(fnode.fid, []).append(
                        (container.attr, node.value.id))
        return registrars

    def _all_calls(self, mnode: ModuleNode):
        """Every call expression in a module with its enclosing function
        (None for module-level code such as registration loops)."""
        for stmt in mnode.module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    yield node, None
        for fnode in mnode.functions.values():
            for node in fnode.nodes:
                if isinstance(node, ast.Call):
                    yield node, fnode

    def _harvest_registration(self, mnode: ModuleNode,
                              fnode: FunctionNode | None,
                              call: ast.Call) -> None:
        for fid in self._resolve_call(mnode, fnode, call):
            specs = self._registrars.get(fid)
            if not specs:
                continue
            callee = self.functions[fid]
            params = [a.arg for a in callee.node.args.args]
            if params and params[0] in ("self", "cls"):
                params = params[1:]
            for attr, param_name in specs:
                arg = None
                for keyword in call.keywords:
                    if keyword.arg == param_name:
                        arg = keyword.value
                if arg is None and param_name in params:
                    index = params.index(param_name)
                    if index < len(call.args) and not any(
                            isinstance(a, ast.Starred) for a in call.args):
                        arg = call.args[index]
                if arg is None:
                    continue
                values = self._function_value(mnode, fnode, arg)
                if values:
                    self.dispatch_targets.setdefault(
                        (callee.cls, attr), set()).update(values)

    def _function_value(self, mnode: ModuleNode, fnode: FunctionNode | None,
                        expr: ast.expr) -> tuple[str, ...]:
        """The function(s) an expression evaluates to, for registration."""
        direct = self._resolve_reference(mnode, fnode, expr)
        if direct:
            return direct
        if isinstance(expr, ast.Name) and expr.id in mnode.loop_functions:
            return mnode.loop_functions[expr.id]
        if isinstance(expr, ast.Call):  # factory(...) returning a nested def
            out: list[str] = []
            for fid in self._resolve_call(mnode, fnode, expr):
                out.extend(self._returned_functions(fid))
            return tuple(dict.fromkeys(out))
        return ()

    def _returned_functions(self, fid: str) -> tuple[str, ...]:
        """fids a function returns by name (``return factory`` closures)."""
        fnode = self.functions.get(fid)
        if fnode is None:
            return ()
        mnode = self.by_module[fnode.module.display]
        out: list[str] = []
        for node in fnode.nodes:
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
                name = node.value.id
                if name in fnode.nested:
                    out.append(fnode.nested[name].fid)
                elif name in mnode.functions:
                    out.append(mnode.functions[name].fid)
        return tuple(dict.fromkeys(out))

    # -- resolution --------------------------------------------------------
    def _resolve_module(self, mnode: ModuleNode) -> None:
        for fnode in mnode.functions.values():
            self._resolve_function(mnode, fnode)

    def _resolve_function(self, mnode: ModuleNode,
                          fnode: FunctionNode) -> None:
        """Resolve every call in ``fnode``; the effects pass reads these
        sites (a call missing from ``calls`` resolved to nothing)."""
        for node in fnode.nodes:
            if isinstance(node, ast.Call):
                targets = self._resolve_call(mnode, fnode, node)
                if targets:
                    fnode.calls.append(CallSite(
                        node=node, lineno=node.lineno, targets=targets))
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    ref = self._resolve_reference(mnode, fnode, arg)
                    if ref:
                        fnode.refs.append(CallSite(
                            node=arg, lineno=arg.lineno, targets=ref,
                            via_reference=True))

    def _resolve_call(self, mnode: ModuleNode, fnode: FunctionNode | None,
                      node: ast.Call) -> tuple[str, ...]:
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_bare(mnode, fnode, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(mnode, fnode, func)
        if isinstance(func, ast.Subscript):
            return self._resolve_subscript(mnode, fnode, func)
        return ()

    def _resolve_subscript(self, mnode: ModuleNode,
                           fnode: FunctionNode | None,
                           func: ast.Subscript) -> tuple[str, ...]:
        """``TABLE[key]()`` / ``self._factories[key]()`` dispatch."""
        base = func.value
        if (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and fnode is not None and fnode.cls):
            candidates = self.dispatch_targets.get((fnode.cls, base.attr))
            if candidates:
                return tuple(sorted(candidates))
        if isinstance(base, ast.Name):
            if base.id in mnode.dispatch_tables:
                return mnode.dispatch_tables[base.id]
            if base.id in mnode.imported_names:
                src, orig = mnode.imported_names[base.id]
                target = self._module_by_dotted.get(src)
                if target is not None and orig in target.dispatch_tables:
                    return target.dispatch_tables[orig]
        return ()

    def _resolve_bare(self, mnode: ModuleNode, fnode: FunctionNode | None,
                      name: str) -> tuple[str, ...]:
        if fnode is not None and name in fnode.nested:        # tier 1
            return (fnode.nested[name].fid,)
        own = mnode.functions.get(name)                       # tier 2
        if own is not None:
            return (own.fid,)
        if name in mnode.imported_names:                      # tier 3
            src, orig = mnode.imported_names[name]
            target = self._module_by_dotted.get(src)
            if target is not None and orig in target.functions:
                return (target.functions[orig].fid,)
            return ()
        candidates = self.by_name.get(name, ())               # tiers 6/7
        if len(candidates) == 1:
            return (candidates[0].fid,)
        return tuple(c.fid for c in candidates)

    def _resolve_attribute(self, mnode: ModuleNode,
                           fnode: FunctionNode | None,
                           func: ast.Attribute) -> tuple[str, ...]:
        method = func.attr
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "self" and fnode is not None and fnode.cls:
                own = mnode.functions.get(f"{fnode.cls}.{method}")
                if own is not None:
                    return (own.fid,)
            if base.id in mnode.import_aliases:                # alias.f()
                target = self._module_by_dotted.get(
                    mnode.import_aliases[base.id])
                if target is not None and method in target.functions:
                    return (target.functions[method].fid,)
            cls = self._instance_class(mnode, base.id)         # INSTANCE.m()
            if cls is not None:
                resolved = self._resolve_method(mnode, cls, method)
                if resolved:
                    return resolved
            if base.id in mnode.imported_names:                # imported inst
                src, orig = mnode.imported_names[base.id]
                target = self._module_by_dotted.get(src)
                if target is not None:
                    cls = target.instance_classes.get(orig)
                    if cls is not None:
                        resolved = self._resolve_method(target, cls, method)
                        if resolved:
                            return resolved
        # tier 6/7 over methods by bare name
        candidates = [c for c in self.by_name.get(method, ())
                      if c.cls is not None]
        if len(candidates) == 1:
            return (candidates[0].fid,)
        return tuple(c.fid for c in candidates)

    def _instance_class(self, mnode: ModuleNode, name: str) -> str | None:
        return mnode.instance_classes.get(name)

    def _resolve_method(self, mnode: ModuleNode, cls: str,
                        method: str) -> tuple[str, ...]:
        own = mnode.functions.get(f"{cls}.{method}")
        if own is not None:
            return (own.fid,)
        if cls in mnode.imported_names:
            src, orig = mnode.imported_names[cls]
            target = self._module_by_dotted.get(src)
            if target is not None:
                theirs = target.functions.get(f"{orig}.{method}")
                if theirs is not None:
                    return (theirs.fid,)
        candidates = [f for f in self.functions.values()
                      if f.cls == cls and f.name == method]
        if len(candidates) == 1:
            return (candidates[0].fid,)
        return ()

    def _resolve_reference(self, mnode: ModuleNode,
                           fnode: FunctionNode | None,
                           arg: ast.expr) -> tuple[str, ...]:
        """Function values passed as arguments (pool.map targets, builders)."""
        if isinstance(arg, ast.Name):
            if fnode is not None and arg.id in fnode.nested:
                return (fnode.nested[arg.id].fid,)
            own = mnode.functions.get(arg.id)
            if own is not None:
                return (own.fid,)
            if arg.id in mnode.imported_names:
                src, orig = mnode.imported_names[arg.id]
                target = self._module_by_dotted.get(src)
                if target is not None and orig in target.functions:
                    return (target.functions[orig].fid,)
        elif isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name):
            if arg.value.id == "self" and fnode is not None and fnode.cls:
                own = mnode.functions.get(f"{fnode.cls}.{arg.attr}")
                if own is not None:
                    return (own.fid,)
        return ()

    # -- queries -----------------------------------------------------------
    def resolve_module(self, dotted: str) -> ModuleNode | None:
        """ModuleNode for a package-relative dotted name (``engine.cache``)."""
        return self._module_by_dotted.get(dotted)

    def successors(self, fid: str) -> set[str]:
        fnode = self.functions.get(fid)
        if fnode is None:
            return set()
        out: set[str] = set()
        for site in fnode.calls + fnode.refs:
            out.update(site.targets)
        return out

    def reachable(self, roots: list[str]) -> set[str]:
        """All fids reachable from the given root fids (roots included)."""
        seen: set[str] = set()
        frontier = [fid for fid in roots if fid in self.functions]
        while frontier:
            fid = frontier.pop()
            if fid in seen:
                continue
            seen.add(fid)
            frontier.extend(self.successors(fid) - seen)
        return seen

    def find(self, suffix: str) -> list[str]:
        """fids whose ``module:qualname`` ends with ``suffix`` (root lookup)."""
        return [fid for fid in self.functions
                if fid == suffix or fid.endswith(suffix)]


def build(modules: list[SourceModule]) -> CallGraph:
    return CallGraph(modules)
