"""Per-op shape/cost transfer functions for the graph pass.

Every op class in :mod:`repro.graphs.ops` gets a *transfer function*: an
independent re-derivation of the op's output shape, MAC count and parameter
count from its hyperparameters and its (possibly symbolic) input shapes.  The
graph pass (:mod:`repro.check.graphs`) propagates these derivations
topologically and compares them against the values the op constructors
stored — a second implementation of the paper's Table I accounting that the
first one must agree with at zero tolerance.

Declaring a transfer function
-----------------------------

Two equivalent spellings:

* **Table entry** (how every built-in op is declared here): register a
  function with ``@transfer(OpClass)``.  The function receives the op and a
  tuple of batch-free input :class:`TensorShape`\\ s and returns a
  :class:`Derived`.  Lookup walks the MRO, so subclasses inherit their base
  class's rule (``DepthwiseConv2D`` reuses ``Conv2D``'s) unless they register
  their own.
* **On the op class** (for ops defined outside :mod:`repro.graphs.ops`, e.g.
  a future ONNX importer): define a static/class method ``shape_transfer(op,
  inputs)`` with the same contract.  It takes precedence over the table.

Transfer functions must stay *symbolic-capable*: dims may be
:class:`~repro.graphs.symbolic.SymDim` expressions, so use the dim-generic
helpers (``shape.numel``, :func:`~repro.graphs.symbolic.floor_div`) rather
than raw ``//`` / ``%`` on dims.  Signal structural problems by raising
:class:`TransferError` with the SHAPE rule that describes them; plain
``ValueError`` from shape arithmetic (e.g. a collapsed conv output) is
translated to SHAPE006 by :func:`apply_transfer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graphs import ops as O
from repro.graphs.symbolic import Dim, floor_div, is_concrete, prod_dims
from repro.graphs.tensor import TensorShape, conv_output_length, pool_output_length

__all__ = [
    "Derived",
    "TransferError",
    "apply_transfer",
    "transfer",
    "transfer_for",
]


@dataclass(frozen=True)
class Derived:
    """What a transfer function re-derives for one op."""

    shape: TensorShape
    macs: Dim = 0
    params: Dim = 0


class TransferError(Exception):
    """A transfer function found the op structurally inapplicable.

    ``rule`` names the SHAPE rule the violation falls under (SHAPE003 for
    rank/broadcast mismatches, SHAPE004 for numel non-conservation, SHAPE006
    for infeasible conv/pool arithmetic).
    """

    def __init__(self, rule: str, message: str):
        super().__init__(message)
        self.rule = rule
        self.message = message


TransferFn = Callable[[O.Op, tuple[TensorShape, ...]], Derived]

#: op class -> transfer function; looked up along the MRO.
TRANSFERS: dict[type, TransferFn] = {}


def transfer(*op_types: type) -> Callable[[TransferFn], TransferFn]:
    """Register a transfer function for one or more op classes."""

    def register(fn: TransferFn) -> TransferFn:
        for op_type in op_types:
            TRANSFERS[op_type] = fn
        return fn

    return register


def transfer_for(op: O.Op) -> TransferFn | None:
    """Resolve the transfer function for an op instance (or None)."""
    declared = getattr(type(op), "shape_transfer", None)
    if declared is not None:
        return lambda op, inputs: declared(op, inputs)
    for klass in type(op).__mro__:
        if klass in TRANSFERS:
            return TRANSFERS[klass]
    return None


def apply_transfer(op: O.Op, inputs: tuple[TensorShape, ...],
                   batch: Dim | None = None) -> Derived:
    """Run an op's transfer function, optionally under a leading batch dim.

    With ``batch`` set, every input must be ``(batch, *per_sample)``; the
    per-sample derivation is then re-prefixed with the batch dim and MACs
    scale linearly — the batch semantics the execution engine assumes
    (``check_batch_memory`` / per-op ``batch_size`` cost scaling).  Params
    are per-model and never scale.
    """
    fn = transfer_for(op)
    if fn is None:
        raise TransferError(
            "SHAPE001", f"no shape transfer function for op class "
                        f"{type(op).__name__}")
    if batch is None:
        return _run(fn, op, inputs)
    per_sample = []
    for shape in inputs:
        if shape.rank < 2 or shape.dims[0] != batch:
            raise TransferError(
                "SHAPE007", f"batched input lost its leading batch dim: {shape}")
        per_sample.append(TensorShape(*shape.dims[1:]))
    derived = _run(fn, op, tuple(per_sample))
    return Derived(shape=TensorShape(batch, *derived.shape.dims),
                   macs=derived.macs * batch, params=derived.params)


def _run(fn: TransferFn, op: O.Op, inputs: tuple[TensorShape, ...]) -> Derived:
    try:
        return fn(op, inputs)
    except TransferError:
        raise
    except ValueError as exc:  # collapsed conv/pool output, non-positive dim
        raise TransferError("SHAPE006", str(exc)) from exc


def _one(op: O.Op, inputs: tuple[TensorShape, ...], rank: int | None = None
         ) -> TensorShape:
    if len(inputs) != 1:
        raise TransferError(
            "SHAPE003", f"{type(op).__name__} expects exactly one input, "
                        f"got {len(inputs)}")
    shape = inputs[0]
    if rank is not None and shape.rank != rank:
        raise TransferError(
            "SHAPE003", f"{type(op).__name__} needs a rank-{rank} input, "
                        f"got {shape}")
    return shape


# --------------------------------------------------------------------------
# the built-in op registry's transfer functions
# --------------------------------------------------------------------------


@transfer(O.Input)
def _input(op: O.Op, inputs: tuple[TensorShape, ...]) -> Derived:
    # Inputs are sources: the stored shape *is* the specification.
    return Derived(shape=op.output_shape)


@transfer(O.Conv2D)  # DepthwiseConv2D inherits via the MRO
def _conv2d(op: O.Conv2D, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs, rank=3)
    in_channels, in_h, in_w = source.dims
    kh, kw = op.kernel
    sh, sw = op.stride
    if is_concrete(in_channels) and in_channels % op.groups:
        raise TransferError(
            "SHAPE006", f"groups={op.groups} does not divide "
                        f"in_channels={in_channels}")
    if op.out_channels % op.groups:
        raise TransferError(
            "SHAPE006", f"groups={op.groups} does not divide "
                        f"out_channels={op.out_channels}")
    out_h = conv_output_length(in_h, kh, sh, op.padding, op.dilation)
    out_w = conv_output_length(in_w, kw, sw, op.padding, op.dilation)
    weights = kh * kw * floor_div(in_channels, op.groups) * op.out_channels
    bias = op.out_channels if op.use_bias else 0
    return Derived(shape=TensorShape(op.out_channels, out_h, out_w),
                   macs=weights * out_h * out_w, params=weights + bias)


@transfer(O.Conv3D)
def _conv3d(op: O.Conv3D, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs, rank=4)
    in_channels, in_t, in_h, in_w = source.dims
    kt, kh, kw = op.kernel
    st, sh, sw = op.stride
    out_t = conv_output_length(in_t, kt, st, op.padding)
    out_h = conv_output_length(in_h, kh, sh, op.padding)
    out_w = conv_output_length(in_w, kw, sw, op.padding)
    weights = kt * kh * kw * in_channels * op.out_channels
    bias = op.out_channels if op.use_bias else 0
    return Derived(shape=TensorShape(op.out_channels, out_t, out_h, out_w),
                   macs=weights * out_t * out_h * out_w, params=weights + bias)


@transfer(O.Dense)
def _dense(op: O.Dense, inputs: tuple[TensorShape, ...]) -> Derived:
    in_features = _one(op, inputs).numel
    bias = op.units if op.use_bias else 0
    return Derived(shape=TensorShape(op.units),
                   macs=in_features * op.units,
                   params=in_features * op.units + bias)


@transfer(O.BatchNorm)
def _batchnorm(op: O.BatchNorm, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs)
    return Derived(shape=source, macs=source.numel, params=2 * source.channels)


@transfer(O.Activation)
def _activation(op: O.Activation, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs)
    return Derived(shape=source, macs=source.numel)


@transfer(O.Pool2D)
def _pool2d(op: O.Pool2D, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs, rank=3)
    channels, in_h, in_w = source.dims
    kh, kw = op.kernel
    sh, sw = op.stride
    out_h = pool_output_length(in_h, kh, sh, op.padding, op.ceil_mode)
    out_w = pool_output_length(in_w, kw, sw, op.padding, op.ceil_mode)
    return Derived(shape=TensorShape(channels, out_h, out_w),
                   macs=out_h * out_w * channels * kh * kw)


@transfer(O.Pool3D)
def _pool3d(op: O.Pool3D, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs, rank=4)
    channels, in_t, in_h, in_w = source.dims
    kt, kh, kw = op.kernel
    st, sh, sw = op.stride
    out_t = pool_output_length(in_t, kt, st, op.padding, op.ceil_mode)
    out_h = pool_output_length(in_h, kh, sh, op.padding, op.ceil_mode)
    out_w = pool_output_length(in_w, kw, sw, op.padding, op.ceil_mode)
    return Derived(shape=TensorShape(channels, out_t, out_h, out_w),
                   macs=out_t * out_h * out_w * channels * kt * kh * kw)


@transfer(O.GlobalPool2D)
def _global_pool(op: O.GlobalPool2D, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs)
    return Derived(shape=TensorShape(source.channels), macs=source.numel)


@transfer(O.Add)
def _add(op: O.Add, inputs: tuple[TensorShape, ...]) -> Derived:
    if len(inputs) < 2:
        raise TransferError("SHAPE003", "Add needs at least two inputs")
    first = inputs[0]
    for shape in inputs[1:]:
        if shape.dims != first.dims:
            raise TransferError(
                "SHAPE003", f"Add inputs disagree: {first} vs {shape}")
    return Derived(shape=first, macs=first.numel * (len(inputs) - 1))


@transfer(O.Concat)
def _concat(op: O.Concat, inputs: tuple[TensorShape, ...]) -> Derived:
    if len(inputs) < 2:
        raise TransferError("SHAPE003", "Concat needs at least two inputs")
    spatial = inputs[0].spatial
    for shape in inputs[1:]:
        if shape.spatial != spatial:
            raise TransferError(
                "SHAPE003", f"Concat inputs disagree on spatial dims: "
                            f"{inputs[0]} vs {shape}")
    channels: Dim = 0
    for shape in inputs:
        channels = channels + shape.channels
    return Derived(shape=TensorShape(channels, *spatial))


@transfer(O.Flatten)
def _flatten(op: O.Flatten, inputs: tuple[TensorShape, ...]) -> Derived:
    return Derived(shape=TensorShape(_one(op, inputs).numel))


@transfer(O.Reshape)
def _reshape(op: O.Reshape, inputs: tuple[TensorShape, ...]) -> Derived:
    # The stored output shape *is* the op's target parameter; the law to
    # verify is element conservation between it and the (possibly symbolic)
    # input — structural equality, so a target that only matches at the
    # baked-in binding fails under symbolic dims.
    source = _one(op, inputs)
    target = op.output_shape
    if prod_dims(target.dims) != source.numel:
        raise TransferError(
            "SHAPE004", f"reshape does not conserve elements: "
                        f"{source} ({source.numel}) -> {target} ({target.numel})")
    return Derived(shape=target)


@transfer(O.Dropout)
def _dropout(op: O.Dropout, inputs: tuple[TensorShape, ...]) -> Derived:
    return Derived(shape=_one(op, inputs))


@transfer(O.Softmax)
def _softmax(op: O.Softmax, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs)
    return Derived(shape=source, macs=5 * source.numel)


@transfer(O.LocalResponseNorm)
def _lrn(op: O.LocalResponseNorm, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs)
    return Derived(shape=source, macs=source.numel * op.size)


@transfer(O.Upsample2D)
def _upsample(op: O.Upsample2D, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs, rank=3)
    channels, in_h, in_w = source.dims
    return Derived(shape=TensorShape(channels, in_h * op.factor,
                                     in_w * op.factor))


@transfer(O.Pad)
def _pad(op: O.Pad, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs, rank=3)
    channels, in_h, in_w = source.dims
    return Derived(shape=TensorShape(channels, in_h + 2 * op.pad[0],
                                     in_w + 2 * op.pad[1]))


@transfer(O.Embedding)
def _embedding(op: O.Embedding, inputs: tuple[TensorShape, ...]) -> Derived:
    seq_len = _one(op, inputs, rank=1).dims[0]
    return Derived(shape=TensorShape(seq_len, op.dim),
                   params=op.vocab_size * op.dim)


@transfer(O._RecurrentLayer)  # LSTM and GRU inherit via the MRO
def _recurrent(op: O._RecurrentLayer, inputs: tuple[TensorShape, ...]) -> Derived:
    source = _one(op, inputs, rank=2)
    seq_len, features = source.dims
    hidden, gates = op.hidden, type(op).GATES
    params = gates * (features * hidden + hidden * hidden + hidden)
    per_step = gates * hidden * (features + hidden) + 4 * hidden
    shape = (TensorShape(seq_len, hidden) if op.return_sequences
             else TensorShape(hidden))
    return Derived(shape=shape, macs=seq_len * per_step, params=params)


@transfer(O.LastTimestep)
def _last_timestep(op: O.LastTimestep, inputs: tuple[TensorShape, ...]) -> Derived:
    return Derived(shape=TensorShape(_one(op, inputs, rank=2).dims[1]))


@transfer(O.DetectionOutput)
def _detection(op: O.DetectionOutput, inputs: tuple[TensorShape, ...]) -> Derived:
    if not inputs:
        raise TransferError("SHAPE003", "DetectionOutput needs at least one input")
    return Derived(shape=TensorShape(op.num_anchors, 6),
                   macs=op.num_anchors * op.MACS_PER_ANCHOR)
