"""Columnar per-op accounting: one :class:`OpTable` per graph.

Every consumer of per-op accounting — the engine's roofline gather, the
memory planner's liveness, the distribution layer's cut sizes — reads the
same NumPy columns, built once per graph the first time
:attr:`repro.graphs.graph.Graph.table` is read, instead of walking the ops
through Python method calls on every spec, deploy and cut.

The table has two halves that are built separately:

* **structure** (built with the table): each op's fused-anchor index, the
  input and output masks, the schedulable op positions and the parent
  edges in CSR form.  It reads only op identities, ``inputs`` and
  ``fused_into``, so it is safe on graphs whose numbers do not fit the
  engine's arithmetic;
* **columns** (:attr:`OpTable.columns`, built on first use): byte counts
  and MACs.  They mirror the :class:`~repro.graphs.ops.Op` accounting
  methods exactly (same IEEE-754 products, same ceilings), column-wise.

Byte counts are exact ``int64``; MACs are ``float64``, the type the
roofline prices them in.  The kernel facts the frameworks price
efficiencies from (:attr:`OpTable.kernels`) are a third, lazily built part.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from repro.graphs import ops as O


class OpColumns(NamedTuple):
    """The numeric columns of one :class:`OpTable`, one entry per op."""

    #: activation bytes the op writes (its output at its activation dtype).
    out_bytes: np.ndarray
    #: activation bytes the op reads (every input, at the op's own
    #: activation dtype, as :meth:`Op.input_bytes` counts them).
    in_bytes: np.ndarray
    #: dense weight bytes at the op's weight dtype (:meth:`Op.weight_bytes`).
    param_bytes: np.ndarray
    #: weight bytes read per inference, without / with exploited sparsity
    #: (:meth:`Op.traffic_weight_bytes`).
    traffic_bytes: np.ndarray
    sparse_traffic_bytes: np.ndarray
    #: MACs without / with exploited sparsity (:meth:`Op.effective_macs`).
    macs: np.ndarray
    sparse_macs: np.ndarray


#: kernel classes: the op groups a framework prices with distinct kernel
#: efficiencies (:meth:`repro.frameworks.base.Framework.kernel_efficiencies`).
KERNEL_GEMM = 0  # dense layers and ordinary convolutions
KERNEL_DEPTHWISE = 1  # one filter per channel (groups == output channels)
KERNEL_CONV3D = 2
KERNEL_RECURRENT = 3
KERNEL_NORM = 4
KERNEL_STREAMING = 5  # activations, pooling, elementwise and shape ops

_CATEGORY_KERNEL = {
    O.OpCategory.DENSE: KERNEL_GEMM,
    O.OpCategory.RECURRENT: KERNEL_RECURRENT,
    O.OpCategory.NORM: KERNEL_NORM,
}


def _kernel_class(op: O.Op) -> int:
    if op.category is not O.OpCategory.CONV:
        return _CATEGORY_KERNEL.get(op.category, KERNEL_STREAMING)
    # Any convolution whose group count equals its output channels runs a
    # depthwise kernel, a one-channel Conv2D or Conv3D (groups 1) included.
    if (isinstance(op, O.DepthwiseConv2D)
            or getattr(op, "groups", 1) == op.output_shape.channels):
        return KERNEL_DEPTHWISE
    if isinstance(op, O.Conv3D):
        return KERNEL_CONV3D
    return KERNEL_GEMM


class KernelFacts(NamedTuple):
    """What kernel each op of one :class:`OpTable` dispatches."""

    #: ``Op.parallel_macs``, exact: ``int64``, or Python ints when a value
    #: does not fit.
    parallel_macs: np.ndarray
    #: ``KERNEL_*`` code per op.
    kernel_class: np.ndarray
    #: ops that are :class:`~repro.graphs.ops.DepthwiseConv2D` layers.
    depthwise: np.ndarray


def _ceil_int(values: np.ndarray) -> np.ndarray:
    return np.ceil(values).astype(np.int64)


def _exact_ints(values: list[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class OpTable:
    """Per-op accounting of one graph's ops, in schedule order.

    Built from ``graph.ops`` and never updated: the ops must not be
    mutated once the table exists (transforms clone first, and a clone
    starts without a table).
    """

    def __init__(self, ops: Sequence[O.Op]):
        self._ops = ops
        n = len(ops)
        index = {id(op): i for i, op in enumerate(ops)}
        try:
            parents = [index[id(parent)] for op in ops for parent in op.inputs]
            anchor = np.array([i if op.fused_into is None else index[id(op.fused_into)]
                               for i, op in enumerate(ops)], dtype=np.intp)
        except KeyError:
            raise ValueError("an op consumes or is fused into an op outside "
                             "the graph") from None
        #: parent edges in CSR form: op ``i`` consumes
        #: ``parents[indptr[i]:indptr[i + 1]]``, in input order.
        counts = np.array([len(op.inputs) for op in ops], dtype=np.intp)
        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self.parents = np.array(parents, dtype=np.intp)
        #: ops merged into a producer's kernel (``Op.is_fused_away``).
        self.fused = np.array([op.fused_into is not None for op in ops], dtype=bool)
        self.is_input = np.array([isinstance(op, O.Input) for op in ops], dtype=bool)
        consumed = np.zeros(n, dtype=bool)
        consumed[self.parents] = True
        #: ops no other op consumes (``Graph.outputs``).
        self.is_output = ~consumed
        # Fusion chains (a -> b -> anchor) resolve by pointer jumping: after
        # k jumps each pointer has followed 2**k links, enough for any chain.
        for _ in range(n.bit_length()):
            anchor = anchor[anchor]
        if self.fused[anchor].any():
            raise ValueError("a fusion chain does not terminate")
        #: position of the op whose kernel materializes each op's output.
        self.anchor = anchor
        #: positions of the ops that still dispatch a kernel.
        self.schedulable = np.flatnonzero(~self.fused & ~self.is_input)

    def __len__(self) -> int:
        return len(self.fused)

    def _consumers(self) -> np.ndarray:
        """The consuming op's position for every edge, in edge order."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    @cached_property
    def columns(self) -> OpColumns:
        """Byte and MAC columns, built in one pass over the ops."""
        ops = self._ops
        numel = np.array([op.output_shape.numel for op in ops], dtype=np.float64)
        act = np.array([op.act_dtype.bytes for op in ops], dtype=np.float64)
        params = np.array([op.params for op in ops], dtype=np.float64)
        width = np.array([op.weight_dtype.bytes for op in ops], dtype=np.float64)
        sparsity = np.array([op.weight_sparsity for op in ops], dtype=np.float64)
        macs = np.array([op.macs for op in ops], dtype=np.float64)

        edge_bytes = _ceil_int(numel[self.parents] * act[self._consumers()])
        edge_sums = np.concatenate(([0], np.cumsum(edge_bytes)))
        param_bytes = _ceil_int(params * width)

        pruned = sparsity > 0.0
        sparse_traffic = param_bytes
        sparse_macs = macs
        if pruned.any():
            kept = 1.0 - sparsity
            sparse_traffic = np.where(pruned, _ceil_int(param_bytes * kept), param_bytes)
            sparse_macs = np.where(pruned & (params != 0), np.ceil(macs * kept), macs)

        traffic = param_bytes
        custom = [i for i, op in enumerate(ops)
                  if type(op).traffic_weight_bytes is not O.Op.traffic_weight_bytes]
        if custom:
            # Ops that read only part of their weights (embedding lookups).
            traffic, sparse_traffic = traffic.copy(), sparse_traffic.copy()
            for i in custom:
                traffic[i] = ops[i].traffic_weight_bytes(False)
                sparse_traffic[i] = ops[i].traffic_weight_bytes(True)
        return OpColumns(
            out_bytes=_ceil_int(numel * act),
            in_bytes=edge_sums[self.indptr[1:]] - edge_sums[self.indptr[:-1]],
            param_bytes=param_bytes,
            traffic_bytes=traffic,
            sparse_traffic_bytes=sparse_traffic,
            macs=macs,
            sparse_macs=sparse_macs,
        )

    @cached_property
    def kernels(self) -> KernelFacts:
        """Each op's parallel work and kernel class, built on first use."""
        ops = self._ops
        return KernelFacts(
            parallel_macs=_exact_ints([op.parallel_macs for op in ops]),
            kernel_class=np.array([_kernel_class(op) for op in ops], dtype=np.intp),
            depthwise=np.array([isinstance(op, O.DepthwiseConv2D) for op in ops],
                               dtype=bool),
        )

    # -- liveness ------------------------------------------------------------
    def live_bytes(self) -> np.ndarray:
        """Live activation bytes right after each op allocates its output.

        A sequential single-batch run allocates each materialized buffer
        (fused-away ops write into their anchor's) and frees it once its
        last chain-external consumer has executed; graph outputs stay live
        to the end.  One difference array over op positions: ``+size`` where
        a buffer is allocated, ``-size`` one step after its last consumer.
        Entries at fused-away positions carry no allocation of their own.
        """
        n = len(self)
        out_bytes = self.columns.out_bytes
        # Edges inside a fused chain need no filtering: a chain member is
        # itself consumed later or is an output, so they are never last.
        last = np.full(n, -1, dtype=np.intp)
        np.maximum.at(last, self.anchor[self.parents], self._consumers())
        kept = np.zeros(n, dtype=bool)
        kept[self.anchor[self.is_output]] = True
        allocated = np.flatnonzero(~self.fused)
        freed = allocated[~kept[allocated]]
        delta = np.zeros(n + 1, dtype=np.int64)
        delta[allocated] += out_bytes[allocated]
        np.subtract.at(delta, last[freed] + 1, out_bytes[freed])
        return np.cumsum(delta[:n])

    @cached_property
    def peak_activation_bytes(self) -> int:
        """The largest :meth:`live_bytes` at an allocating op."""
        return int(self.live_bytes()[~self.fused].max())

    # -- cuts ----------------------------------------------------------------
    @cached_property
    def cut_bytes(self) -> np.ndarray:
        """Activation bytes crossing the cut after ``k`` schedulable ops.

        Entry 0 ships the raw inputs and entry ``N`` the graph outputs.  In
        between, the output materialized at schedulable position ``p``
        crosses exactly the cuts ``p < k <= last[p]``, ``last[p]`` being the
        position of its furthest consumer; inputs sit at position -1.  One
        difference array over cut positions sums every crossing exactly.
        """
        out_bytes = self.columns.out_bytes
        count = len(self.schedulable)
        rank = np.full(len(self), -1, dtype=np.intp)
        rank[self.schedulable] = np.arange(count)
        position = rank[self.anchor]  # -1 for the raw inputs
        produced = position[self.parents]
        consumed = position[self._consumers()]
        last = np.arange(-1, count)  # entry p + 1: producer p's furthest consumer
        np.maximum.at(last, produced + 1, consumed)
        input_bytes = int(out_bytes[self.is_input].sum())
        sizes = np.concatenate(([input_bytes], out_bytes[self.schedulable]))
        delta = sizes.copy()
        np.subtract.at(delta, last + 1, sizes)
        crossing = np.cumsum(delta)
        crossing[0] = input_bytes
        if count:
            crossing[count] = out_bytes[self.is_output].sum()
        return crossing
