"""Graph pass: one verifier over every zoo graph and its transform outputs.

Every op *stores* its output shape, MACs and params, computed once at
construction, and the per-layer characterization (Figures 1 and 5-9,
Table V) and everything downstream trust them blindly; transforms clone
via ``Graph.__new__`` (skipping re-validation) and annotate ops in place.
Each zoo model is loaded once and its five transform outputs (fuse, prune,
quantize, freeze, and freeze after fuse) are built once, and every graph
is re-verified from first principles:

* **structure** (IR001-IR008), on every graph: dataflow order, unique
  names, an Input op, well-typed shapes and dtype annotations, non-negative
  accounting, fusion-link consistency and roofline preconditions;
* **derivation** (SHAPE001-SHAPE007), on the base graph: the per-op
  transfer functions of :mod:`repro.check.shape_rules` re-derive every
  shape, MAC count, param count and byte total, propagated topologically
  and compared against the stored values at zero tolerance.  It runs
  concretely (SHAPE001-SHAPE006); under a free batch dim ``N``, which must
  stay leading with MACs linear in it (the batch cost model the engine
  assumes); and, for sequence models, under a free ``SEQ`` length, which
  must reproduce the stored values and stay well-formed for every
  ``SEQ >= 1`` (SHAPE007).  The derivation relies on what IR001-IR005
  establish, so it runs only when those are clean: a malformed graph
  yields findings, never an exception;
* **transforms**, on each output: the conservation law its transform
  promises (IR101-IR104: fusion, quantization and freezing never change
  total MACs or params; pruning annotates sparsity without touching
  params) and SHAPE008, a concrete re-derivation that must agree with the
  base graph's, derived once per model.

Locations read ``graph:<model>[@<transform>]/<op>``.
"""

from __future__ import annotations

import math

from repro.check.findings import Finding, Severity
from repro.check.shape_rules import Derived, TransferError, apply_transfer
from repro.graphs import ops as O
from repro.graphs.graph import Graph
from repro.graphs.symbolic import Dim, dim, evaluate_dim, free_symbols
from repro.graphs.tensor import DType, TensorShape
from repro.graphs.transforms import freeze_graph, fuse_graph, prune_graph, quantize_graph

RULES: dict[str, tuple[Severity, str]] = {
    "IR001": (Severity.ERROR, "dataflow must be acyclic and topologically ordered"),
    "IR002": (Severity.ERROR, "op names must be unique within a graph"),
    "IR003": (Severity.ERROR, "a graph must have at least one Input op"),
    "IR004": (Severity.ERROR, "op output shapes must be positive integer dims"),
    "IR005": (Severity.ERROR, "weight/activation dtype annotations must be DType members"),
    "IR006": (Severity.ERROR, "FLOP/byte/param accounting must be non-negative"),
    "IR007": (Severity.ERROR, "fusion links must be consistent and acyclic"),
    "IR008": (Severity.ERROR, "roofline preconditions: finite work over positive bytes"),
    "IR101": (Severity.ERROR, "fusion must conserve total MACs, params and op count"),
    "IR102": (Severity.ERROR, "pruning must not change params or MACs (annotation only)"),
    "IR103": (Severity.ERROR, "quantization must conserve MACs/params and set uniform dtypes"),
    "IR104": (Severity.ERROR, "freezing must conserve MACs/params and fold every Dropout"),
    "SHAPE001": (Severity.ERROR,
                 "stored output shapes must match the derived transfer-function shapes"),
    "SHAPE002": (Severity.ERROR,
                 "dtypes must propagate producer -> consumer without implicit casts"),
    "SHAPE003": (Severity.ERROR,
                 "op inputs must satisfy rank/shape compatibility (Add/Concat and friends)"),
    "SHAPE004": (Severity.ERROR,
                 "reshape/flatten must conserve the element count"),
    "SHAPE005": (Severity.ERROR,
                 "stored MACs/params/bytes must match derived accounting at zero tolerance"),
    "SHAPE006": (Severity.ERROR,
                 "conv/pool arithmetic must stay feasible under the declared padding"),
    "SHAPE007": (Severity.ERROR,
                 "graphs must stay valid for every symbolic batch/sequence binding >= 1"),
    "SHAPE008": (Severity.ERROR,
                 "transforms must preserve derived shape/accounting consistency"),
}

#: transform name -> conservation rule id.
_CONSERVATION_RULE = {
    "fuse": "IR101",
    "prune": "IR102",
    "quantize": "IR103",
    "freeze": "IR104",
}

#: the structural rules the derivation relies on: while any of them fires,
#: a graph is not derived at all.
_DERIVATION_NEEDS = frozenset(("IR001", "IR002", "IR003", "IR004", "IR005"))

#: compatible weight/activation dtype pairings beyond "same dtype"; binary
#: weights need quantized activations (the FINN deployment style).
_BINARY_ACTS = (DType.INT8, DType.BINARY)


def _finding(rule: str, location: str, message: str) -> Finding:
    return Finding(rule, RULES[rule][0], location, message)


def _derivable(findings: list[Finding]) -> bool:
    return not any(finding.rule in _DERIVATION_NEEDS for finding in findings)


# -- structure: IR001-IR008 ------------------------------------------------
def _is_finite_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False  # too large for the engine's float math


def _walk(graph: Graph, where: str) -> list[Finding]:
    """Re-verify one graph's structure from first principles (IR001-IR008)."""
    findings: list[Finding] = []

    in_graph = {id(op) for op in graph.ops}
    seen: set[int] = set()
    names: set[str] = set()
    for op in graph.ops:
        loc = f"{where}/{op.name}"
        for parent in op.inputs:
            if id(parent) not in in_graph:
                findings.append(_finding(
                    "IR001", loc, f"consumes {parent.name!r} which is not in the graph"))
            elif id(parent) not in seen:
                findings.append(_finding(
                    "IR001", loc, f"consumes {parent.name!r} before it is defined"))
        if op.name in names:
            findings.append(_finding("IR002", loc, "duplicate op name"))
        names.add(op.name)
        seen.add(id(op))

    if not any(isinstance(op, O.Input) for op in graph.ops):
        findings.append(_finding("IR003", where, "graph has no Input op"))

    for op in graph.ops:
        loc = f"{where}/{op.name}"
        findings += _check_shape(op, loc)
        for attr in ("weight_dtype", "act_dtype"):
            if not isinstance(getattr(op, attr), DType):
                findings.append(_finding("IR005", loc, f"{attr} is not a DType"))
        findings += _check_counts(op, loc)
        findings += _check_fusion_links(op, loc, in_graph, len(graph.ops))

    # Roofline preconditions only make sense on a structurally sound graph.
    if not findings:
        for op in graph.schedulable_ops():
            findings += _check_roofline(op, f"{where}/{op.name}")
    return findings


def _check_shape(op: O.Op, loc: str) -> list[Finding]:
    shape = op.output_shape
    if not isinstance(shape, TensorShape):
        return [_finding("IR004", loc, f"output_shape is {type(shape).__name__}, "
                                       "not a TensorShape")]
    if any(not isinstance(d, int) or isinstance(d, bool) or d <= 0 for d in shape.dims):
        return [_finding("IR004", loc, f"non-positive output dims in {shape.dims}")]
    return []


def _check_counts(op: O.Op, loc: str) -> list[Finding]:
    findings = []
    for attr in ("params", "macs"):
        value = getattr(op, attr)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            findings.append(_finding("IR006", loc, f"{attr} must be a non-negative int, "
                                                   f"got {value!r}"))
    sparsity = op.weight_sparsity
    if not isinstance(sparsity, (int, float)) or not 0.0 <= sparsity < 1.0:
        findings.append(_finding(
            "IR006", loc, f"weight_sparsity must be in [0, 1), got {sparsity!r}"))
    return findings


def _check_fusion_links(op: O.Op, loc: str, in_graph: set[int],
                        graph_size: int) -> list[Finding]:
    findings = []
    target = op.fused_into
    if target is not None:
        if isinstance(op, O.Input):
            findings.append(_finding("IR007", loc, "Input op cannot be fused away"))
        if id(target) not in in_graph:
            findings.append(_finding(
                "IR007", loc, f"fused into {target.name!r} which is not in the graph"))
        elif op not in target.absorbed:
            findings.append(_finding(
                "IR007", loc, f"fused into {target.name!r} but missing from its "
                              "absorbed list"))
        # Fusion chains (a -> b -> anchor) are legal; cycles are not.
        cursor, steps = op, 0
        while cursor.fused_into is not None and steps <= graph_size:
            cursor = cursor.fused_into
            steps += 1
        if steps > graph_size:
            findings.append(_finding("IR007", loc, "fusion chain does not terminate"))
    for absorbed in op.absorbed:
        if absorbed.fused_into is not op:
            findings.append(_finding(
                "IR007", loc, f"absorbed op {absorbed.name!r} does not point back "
                              "via fused_into"))
    return findings


def _check_roofline(op: O.Op, loc: str) -> list[Finding]:
    findings = []
    macs = op.effective_macs(exploit_sparsity=True)
    if not _is_finite_number(macs):
        findings.append(_finding("IR008", loc, f"effective MACs not finite: {macs!r}"))
    moved = (op.traffic_weight_bytes(exploit_sparsity=False)
             + op.input_bytes() + op.output_bytes())
    if not _is_finite_number(moved):
        findings.append(_finding("IR008", loc, f"byte traffic not finite: {moved!r}"))
    elif moved <= 0:
        findings.append(_finding(
            "IR008", loc,
            "op moves zero bytes; arithmetic intensity would be infinite"))
    return findings


# -- derivation: SHAPE001-SHAPE007 -----------------------------------------
def _propagate(graph: Graph, seeds: dict[int, TensorShape],
               batch: Dim | None):
    """Topologically derive every op, yielding ``(op, derived, error)``.

    ``seeds`` overrides Input shapes (symbolic modes); a failed transfer
    yields its :class:`TransferError` and falls back to the stored shape so
    one defect does not cascade down the graph.
    """
    env: dict[int, Derived] = {}
    for op in graph.ops:
        if isinstance(op, O.Input):
            derived = Derived(shape=seeds.get(id(op), op.output_shape))
            env[id(op)] = derived
            yield op, derived, None
            continue
        inputs = tuple(env[id(parent)].shape for parent in op.inputs)
        error: TransferError | None = None
        try:
            derived = apply_transfer(op, inputs, batch=batch)
        except TransferError as exc:
            error = exc
            fallback = (TensorShape(batch, *op.output_shape.dims)
                        if batch is not None else op.output_shape)
            derived = Derived(shape=fallback, macs=op.macs, params=op.params)
        env[id(op)] = derived
        yield op, derived, error


def _check_dtype_flow(op: O.Op, loc: str) -> list[Finding]:
    findings = []
    produced = {parent.act_dtype for parent in op.inputs}
    if len(produced) > 1:
        names = sorted(d.value for d in produced)
        findings.append(_finding(
            "SHAPE002", loc,
            f"mixed activation dtypes {names} meet without a cast boundary"))
    elif produced and op.act_dtype not in produced:
        findings.append(_finding(
            "SHAPE002", loc,
            f"consumes {next(iter(produced)).value} activations but stores "
            f"{op.act_dtype.value} without a cast/quantize boundary"))
    if op.weight_dtype is DType.BINARY and op.act_dtype not in _BINARY_ACTS:
        findings.append(_finding(
            "SHAPE002", loc,
            f"binary weights require quantized activations, got "
            f"{op.act_dtype.value}"))
    return findings


def _check_accounting(op: O.Op, derived: Derived, loc: str) -> list[Finding]:
    findings = []
    if derived.macs != op.macs:
        findings.append(_finding(
            "SHAPE005", loc, f"stored MACs {op.macs} != derived {derived.macs}"))
    if derived.params != op.params:
        findings.append(_finding(
            "SHAPE005", loc,
            f"stored params {op.params} != derived {derived.params}"))
    derived_weight = math.ceil(derived.params * op.weight_dtype.bytes)
    if derived_weight != op.weight_bytes():
        findings.append(_finding(
            "SHAPE005", loc,
            f"stored weight bytes {op.weight_bytes()} != derived {derived_weight}"))
    derived_act = math.ceil(derived.shape.numel * op.act_dtype.bytes)
    if derived_act != op.output_bytes():
        findings.append(_finding(
            "SHAPE005", loc,
            f"stored activation bytes {op.output_bytes()} != derived {derived_act}"))
    if isinstance(op, O.Embedding):
        touched = math.ceil(
            derived.shape.dims[0] * op.dim * op.weight_dtype.bytes)
        stored = op.traffic_weight_bytes(exploit_sparsity=False)
        if touched != stored:
            findings.append(_finding(
                "SHAPE005", loc,
                f"stored embedding traffic {stored} B != derived {touched} B"))
    return findings


def _interpret_concrete(graph: Graph, where: str
                        ) -> tuple[list[Finding], dict[str, Derived], set[str]]:
    """Concrete run: returns (findings, derivation by op name, flagged names)."""
    findings: list[Finding] = []
    env: dict[str, Derived] = {}
    flagged: set[str] = set()
    for op, derived, error in _propagate(graph, seeds={}, batch=None):
        loc = f"{where}/{op.name}"
        env[op.name] = derived
        before = len(findings)
        if error is not None:
            findings.append(_finding(error.rule, loc, error.message))
        elif not isinstance(op, O.Input):
            if derived.shape.dims != op.output_shape.dims:
                findings.append(_finding(
                    "SHAPE001", loc,
                    f"stored shape {op.output_shape.dims} != derived "
                    f"{derived.shape.dims}"))
            findings += _check_accounting(op, derived, loc)
        findings += _check_dtype_flow(op, loc)
        if len(findings) > before:
            flagged.add(op.name)
    return findings, env, flagged


def _interpret_batch(graph: Graph, where: str, concrete: dict[str, Derived],
                     flagged: set[str]) -> list[Finding]:
    batch = dim("N")
    seeds = {id(op): TensorShape(batch, *op.output_shape.dims)
             for op in graph.ops if isinstance(op, O.Input)}
    findings: list[Finding] = []
    for op, derived, error in _propagate(graph, seeds, batch):
        if isinstance(op, O.Input) or op.name in flagged:
            continue  # concretely-broken ops already reported their own rule
        loc = f"{where}/{op.name}"
        if error is not None:
            findings.append(_finding(
                "SHAPE007", loc, f"not batch-safe: {error.message}"))
            continue
        dims = derived.shape.dims
        if dims[0] != batch:
            findings.append(_finding(
                "SHAPE007", loc, f"derived shape {dims} lost the leading batch dim"))
            continue
        base = concrete[op.name]
        if any(free_symbols(d) for d in dims[1:]):
            findings.append(_finding(
                "SHAPE007", loc,
                f"per-sample dims depend on the batch size: {dims[1:]}"))
        elif dims[1:] != base.shape.dims:
            findings.append(_finding(
                "SHAPE007", loc,
                f"per-sample dims {dims[1:]} != concrete {base.shape.dims}"))
        if evaluate_dim(derived.macs, {"N": 3}) != 3 * base.macs:
            findings.append(_finding(
                "SHAPE007", loc,
                f"MACs are not linear in the batch size: {derived.macs}"))
        if derived.params != base.params:
            findings.append(_finding(
                "SHAPE007", loc,
                f"params depend on the batch size: {derived.params}"))
    return findings


def _seq_seeds(graph: Graph) -> tuple[dict[int, TensorShape], int] | None:
    """Symbolic-SEQ seeding for sequence models, or None when inapplicable.

    The sequence axis is the leading dim of any Input consumed by an
    Embedding (token ids, rank 1) or recurrent layer (features, rank 2).
    """
    seq = dim("SEQ")
    seeds: dict[int, TensorShape] = {}
    lengths: set[int] = set()
    for op in graph.ops:
        rank = 1 if isinstance(op, O.Embedding) else \
            2 if isinstance(op, O._RecurrentLayer) else None
        if rank is None or not op.inputs:
            continue
        source = op.inputs[0]
        if isinstance(source, O.Input) and source.output_shape.rank == rank:
            seeds[id(source)] = TensorShape(seq, *source.output_shape.dims[1:])
            lengths.add(source.output_shape.dims[0])
    if not seeds or len(lengths) != 1:
        return None  # not a sequence model, or no single SEQ binding exists
    return seeds, lengths.pop()


def _interpret_seq(graph: Graph, where: str, concrete: dict[str, Derived],
                   flagged: set[str]) -> list[Finding]:
    seeded = _seq_seeds(graph)
    if seeded is None:
        return []
    seeds, stored_len = seeded
    at_stored = {"SEQ": stored_len}
    at_one = {"SEQ": 1}
    findings: list[Finding] = []
    for op, derived, error in _propagate(graph, seeds, batch=None):
        if isinstance(op, O.Input) or op.name in flagged:
            continue
        loc = f"{where}/{op.name}"
        if error is not None:
            findings.append(_finding(
                "SHAPE007", loc,
                f"only valid at the stored sequence length: {error.message}"))
            continue
        base = concrete[op.name]
        dims = derived.shape.dims
        evaluated = tuple(evaluate_dim(d, at_stored) for d in dims)
        if evaluated != base.shape.dims:
            findings.append(_finding(
                "SHAPE007", loc,
                f"symbolic shape {dims} evaluates to {evaluated} at "
                f"SEQ={stored_len}, stored {base.shape.dims}"))
        if any(evaluate_dim(d, at_one) < 1 for d in dims):
            findings.append(_finding(
                "SHAPE007", loc, f"shape {dims} collapses at SEQ=1"))
        if evaluate_dim(derived.macs, at_stored) != base.macs:
            findings.append(_finding(
                "SHAPE007", loc,
                f"symbolic MACs {derived.macs} disagree with stored "
                f"{base.macs} at SEQ={stored_len}"))
        if free_symbols(derived.params):
            findings.append(_finding(
                "SHAPE007", loc,
                f"params depend on the sequence length: {derived.params}"))
    return findings


# -- transform outputs: IR101-IR104, SHAPE008 ------------------------------
def _check_conservation(kind: str, base: Graph, transformed: Graph,
                        where: str) -> list[Finding]:
    rule = _CONSERVATION_RULE[kind]
    findings = []
    if len(transformed.ops) != len(base.ops):
        findings.append(_finding(rule, where, f"op count changed: {len(base.ops)} -> "
                                              f"{len(transformed.ops)}"))
    if transformed.total_macs != base.total_macs:
        findings.append(_finding(rule, where, f"total MACs changed: {base.total_macs} -> "
                                              f"{transformed.total_macs}"))
    if transformed.total_params != base.total_params:
        findings.append(_finding(
            rule, where, f"total params changed: {base.total_params} -> "
                         f"{transformed.total_params}"))
    if kind == "quantize":
        dtypes = {op.weight_dtype for op in transformed.ops}
        if len(dtypes) != 1:
            findings.append(_finding(rule, where, "non-uniform weight dtypes after "
                                                  "quantization"))
        if transformed.weight_bytes() > base.weight_bytes():
            findings.append(_finding(rule, where, "quantization increased weight bytes"))
    if kind == "freeze":
        for op in transformed.ops:
            if isinstance(op, O.Dropout) and not op.is_fused_away:
                findings.append(_finding(
                    rule, f"{where}/{op.name}", "Dropout survived freezing"))
    return findings


def _check_preserved(kind: str, base_env: dict[str, Derived],
                     transformed: Graph, where: str) -> list[Finding]:
    """SHAPE008: a transform output must re-derive cleanly and agree with
    the base graph's derivation for every surviving op."""
    findings: list[Finding] = []
    inner, env, _ = _interpret_concrete(transformed, where)
    for found in inner:
        findings.append(_finding(
            "SHAPE008", found.location,
            f"{kind} broke derived consistency: [{found.rule}] {found.message}"))
    for op in transformed.ops:
        base = base_env.get(op.name)
        if base is None:
            findings.append(_finding(
                "SHAPE008", f"{where}/{op.name}",
                f"{kind} introduced op {op.name!r} absent from the base graph"))
        elif env[op.name].shape.dims != base.shape.dims:
            findings.append(_finding(
                "SHAPE008", f"{where}/{op.name}",
                f"{kind} changed the derived shape: {base.shape.dims} -> "
                f"{env[op.name].shape.dims}"))
    return findings


# -- entry points ----------------------------------------------------------
def _verify(graph: Graph, where: str
            ) -> tuple[list[Finding], dict[str, Derived] | None]:
    """Structure, then derivation when IR001-IR005 are clean; returns the
    findings and the concrete derivation by op name (None if not derived)."""
    findings = _walk(graph, where)
    if not _derivable(findings):
        return findings, None
    found, env, flagged = _interpret_concrete(graph, where)
    findings += found
    findings += _interpret_batch(graph, where, env, flagged)
    findings += _interpret_seq(graph, where, env, flagged)
    return findings, env


def verify_graph(graph: Graph, label: str | None = None) -> list[Finding]:
    """Verify one graph: its structure (IR001-IR008), then, when IR001-IR005
    are clean, its concrete and symbolic derivation (SHAPE001-SHAPE007)."""
    return _verify(graph, f"graph:{label or graph.name}")[0]


def verify_transform(kind: str, base: Graph, transformed: Graph,
                     label: str | None = None,
                     base_env: dict[str, Derived] | None = None) -> list[Finding]:
    """Verify one transform output: its structure, the conservation law of
    ``kind`` against ``base`` (IR101-IR104) and, when the output's
    IR001-IR005 are clean, SHAPE008 against ``base_env``.

    ``kind`` is one of ``fuse``/``prune``/``quantize``/``freeze``; ``base``
    is the graph the transform was applied to.  ``base_env`` is the model's
    concrete derivation by op name; ``base``'s is derived when not given.
    """
    if kind not in _CONSERVATION_RULE:
        raise ValueError(f"unknown transform kind {kind!r}")
    where = f"graph:{label or base.name + '@' + kind}"
    findings = _walk(transformed, where)
    findings += _check_conservation(kind, base, transformed, where)
    if _derivable(findings):
        if base_env is None:
            base_env = _interpret_concrete(base, f"graph:{base.name}")[1]
        findings += _check_preserved(kind, base_env, transformed, where)
    return findings


def verify_transforms(graph: Graph, label: str | None = None,
                      base_env: dict[str, Derived] | None = None) -> list[Finding]:
    """Build the five transform outputs of ``graph`` once and verify each
    against ``graph`` and its derivation ``base_env`` (derived if not given)."""
    label = label or graph.name
    if base_env is None:
        base_env = _interpret_concrete(graph, f"graph:{label}")[1]
    fused = fuse_graph(graph)
    outputs = [
        ("fuse", graph, fused),
        ("prune", graph, prune_graph(graph, sparsity=0.5)),
        ("quantize", graph, quantize_graph(graph, DType.INT8)),
        ("freeze", graph, freeze_graph(graph)),
        # Composition: freezing a fused graph exercises fusion *chains*
        # (Dropout folded into an op that is itself fused away).
        ("freeze", fused, freeze_graph(fused)),
    ]
    findings: list[Finding] = []
    for kind, base, transformed in outputs:
        step = f"{label}@{kind}" if base is graph else f"{label}@fuse+{kind}"
        findings += verify_transform(kind, base, transformed, step, base_env)
    return findings


def verify_model(model_name: str) -> list[Finding]:
    """Verify one zoo model and all of its transform outputs."""
    from repro.models import load_model

    graph = load_model(model_name)
    findings, env = _verify(graph, f"graph:{graph.name}")
    if not findings:  # transforms of a malformed graph would double-report
        findings += verify_transforms(graph, base_env=env)
    return findings


def run(models: list[str] | None = None) -> list[Finding]:
    """Graph pass entry point: every zoo model (or ``models``) + transforms."""
    from repro.models import list_models

    findings: list[Finding] = []
    for name in models if models is not None else list_models():
        findings += verify_model(name)
    return findings


def render_symbolic_summary(graph: Graph) -> str:
    """A per-op table of fully symbolic derivations (batch ``N`` prefixed,
    sequence axis ``SEQ`` where applicable) — the golden-snapshot surface
    proving the symbolic algebra stays stable."""
    batch = dim("N")
    seeded = _seq_seeds(graph)
    seq_seeds = seeded[0] if seeded else {}
    seeds = {}
    for op in graph.ops:
        if isinstance(op, O.Input):
            per_sample = seq_seeds.get(id(op), op.output_shape)
            seeds[id(op)] = TensorShape(batch, *per_sample.dims)
    lines = [f"model: {graph.name}"]
    for op, derived, error in _propagate(graph, seeds, batch):
        if error is not None:
            rendered = f"<{error.rule}: {error.message}>"
        else:
            dims = ", ".join(str(d) for d in derived.shape.dims)
            rendered = f"({dims})  params={derived.params}  macs={derived.macs}"
        lines.append(f"{op.name:<24} {type(op).__name__:<18} {rendered}")
    return "\n".join(lines) + "\n"
