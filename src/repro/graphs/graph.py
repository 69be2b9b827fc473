"""The dataflow graph and its builder.

A :class:`Graph` is an immutable-by-convention DAG of ops in topological
order (the builder can only reference already-created ops, so construction
order is a valid schedule).  It exposes the aggregate quantities Table I
reports (MACs, parameters, compute intensity) plus the memory figures the
execution engine needs (weight bytes, peak activation liveness), read from
its columnar :class:`~repro.graphs.table.OpTable`, and the prepared graphs
the frameworks deploy (:meth:`Graph.transformed`).
"""

from __future__ import annotations

import copy
from typing import Iterator

from repro.graphs import ops as O
from repro.graphs.table import OpTable
from repro.graphs.tensor import DType, TensorShape


#: in-place transform steps applied in order, each a step function and its
#: arguments after the graph, e.g. ``((fuse_in_place,), (quantize_in_place,
#: DType.INT8))`` (:meth:`Graph.transformed`).
Recipe = tuple[tuple, ...]


class Graph:
    """A topologically ordered op DAG for one DNN model.

    Per-op accounting comes from :attr:`table`, built from ``ops`` the first
    time it is read and kept with the graph.  The prepared graph for a
    transform recipe comes from :meth:`transformed`, built on the first
    request for that recipe and kept with the graph in the same way.  A
    graph's ops must not be mutated (annotations, inputs or the op list
    itself) once its table has been read or it has been shared: every
    transform in :mod:`repro.graphs.transforms` mutates a :meth:`clone`,
    which starts without a table and without prepared graphs.
    """

    _table: OpTable | None = None
    _recipes: dict[Recipe, "Graph"] | None = None

    def __init__(self, name: str, operations: list[O.Op], metadata: dict | None = None):
        self.name = name
        self.ops = list(operations)
        self.metadata = dict(metadata or {})
        self._validate()

    @property
    def table(self) -> OpTable:
        """The graph's columnar per-op accounting, built on first read."""
        table = self._table
        if table is None:
            # First build wins on a race, so every reader shares one table.
            table = vars(self).setdefault("_table", OpTable(self.ops))
        return table

    def transformed(self, steps: Recipe) -> "Graph":
        """This graph after ``steps``, built once per recipe and shared.

        ``steps`` is a hashable recipe of in-place steps, each a tuple of a
        step function and its arguments after the graph, applied in order
        to one :meth:`clone`: TFLite's is ``((freeze_in_place,),
        (fuse_in_place,), (quantize_in_place, DType.INT8))``.  The result is
        memoized on this graph by recipe, so every deployment asking for
        the same recipe shares one prepared graph and its table; it lives
        as long as this graph does.  An empty recipe returns this graph.
        The result is shared: never mutate it (transform a clone instead).
        """
        if not steps:
            return self
        recipes = self._recipes
        if recipes is None:
            recipes = vars(self).setdefault("_recipes", {})
        prepared = recipes.get(steps)
        if prepared is None:
            prepared = self.clone()
            for step, *args in steps:
                step(prepared, *args)
            # First build wins on a race, so every caller shares one graph.
            prepared = recipes.setdefault(steps, prepared)
        return prepared

    def _validate(self) -> None:
        seen: set[int] = set()
        names: set[str] = set()
        for op in self.ops:
            for parent in op.inputs:
                if id(parent) not in seen:
                    raise ValueError(
                        f"graph {self.name!r} is not topologically ordered: "
                        f"{op.name!r} consumes {parent.name!r} before it is defined"
                    )
            if op.name in names:
                raise ValueError(f"graph {self.name!r} has duplicate op name {op.name!r}")
            names.add(op.name)
            seen.add(id(op))
        if not any(isinstance(op, O.Input) for op in self.ops):
            raise ValueError(f"graph {self.name!r} has no Input op")

    # -- structure ---------------------------------------------------------
    @property
    def inputs(self) -> list[O.Op]:
        return [op for op in self.ops if isinstance(op, O.Input)]

    @property
    def outputs(self) -> list[O.Op]:
        consumed = {id(parent) for op in self.ops for parent in op.inputs}
        return [op for op in self.ops if id(op) not in consumed]

    def op(self, name: str) -> O.Op:
        for candidate in self.ops:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no op named {name!r} in graph {self.name!r}")

    def __iter__(self) -> Iterator[O.Op]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def clone(self) -> "Graph":
        """Structural copy, so transforms never mutate a shared zoo instance.

        Ops reference each other only through ``inputs``, ``fused_into`` and
        ``absorbed``; everything else they hold (shapes, dtypes, scalars) is
        immutable and safe to share.  Copying each op shallowly and remapping
        those three fields is equivalent to ``copy.deepcopy`` on a valid
        graph while skipping its per-attribute recursion.  The clone shares
        neither the table nor the prepared graphs of :meth:`transformed`: it
        builds its own when first asked.
        """
        mapping: dict[int, O.Op] = {}
        for op in self.ops:
            # Ops are plain __dict__ classes, so this is ``copy.copy``
            # without the __reduce_ex__ round-trip it dispatches through.
            shallow = object.__new__(type(op))
            shallow.__dict__.update(op.__dict__)
            mapping[id(op)] = shallow
        for op in self.ops:
            cloned = mapping[id(op)]
            cloned.inputs = [mapping[id(parent)] for parent in op.inputs]
            if op.fused_into is not None:
                cloned.fused_into = mapping[id(op.fused_into)]
            cloned.absorbed = [mapping[id(a)] for a in op.absorbed]
        # The op list is a valid schedule by construction; skip re-validation.
        cloned_graph = Graph.__new__(Graph)
        cloned_graph.name = self.name
        cloned_graph.ops = [mapping[id(op)] for op in self.ops]
        cloned_graph.metadata = copy.deepcopy(self.metadata)
        return cloned_graph

    # -- Table I accounting -------------------------------------------------
    @property
    def total_params(self) -> int:
        return sum(op.params for op in self.ops)

    @property
    def total_macs(self) -> int:
        return sum(op.macs for op in self.ops)

    @property
    def flop_per_param(self) -> float:
        """Compute intensity — the sorting key of the paper's Figure 1."""
        params = self.total_params
        if params == 0:
            raise ValueError(f"graph {self.name!r} has no parameters")
        return self.total_macs / params

    def weight_bytes(self, dtype: DType | None = None) -> int:
        """Total weight bytes; ``dtype`` overrides per-op annotations."""
        if dtype is None:
            return int(self.table.columns.param_bytes.sum())
        total = 0.0
        for op in self.ops:
            total += op.params * dtype.bytes
        return int(total)

    # -- memory liveness ----------------------------------------------------
    def peak_activation_bytes(self) -> int:
        """Peak live activation memory for a sequential single-batch run.

        Each materialized buffer stays live until its last chain-external
        consumer has executed — the same liveness a framework memory
        planner sees.  Fused-away ops share their anchor's buffer instead
        of materializing an intermediate (:meth:`OpTable.live_bytes`).
        """
        return self.table.peak_activation_bytes

    def inference_footprint_bytes(self) -> int:
        """Weights + peak activations: the deployment footprint the paper's
        Table V memory failures are about."""
        return self.weight_bytes() + self.peak_activation_bytes()

    # -- convenience --------------------------------------------------------
    def ops_by_category(self) -> dict[O.OpCategory, list[O.Op]]:
        grouped: dict[O.OpCategory, list[O.Op]] = {}
        for op in self.ops:
            grouped.setdefault(op.category, []).append(op)
        return grouped

    def schedulable_ops(self) -> list[O.Op]:
        """Ops that still dispatch a kernel (not fused into a producer)."""
        ops = self.ops
        return [ops[i] for i in self.table.schedulable.tolist()]

    def summary(self, verbose: bool = False) -> str:
        """One-line totals; ``verbose`` adds a per-op table (Keras-style)."""
        lines = [
            f"Graph {self.name!r}: {len(self.ops)} ops, "
            f"{self.total_params / 1e6:.2f} M params, "
            f"{self.total_macs / 1e9:.2f} GFLOP (MAC convention), "
            f"FLOP/Param {self.flop_per_param:.1f}"
        ]
        if verbose:
            header = (f"{'op':24s} {'type':18s} {'output':>18s} "
                      f"{'params':>12s} {'MACs':>14s}")
            lines += [header, "-" * len(header)]
            for op in self.ops:
                shape = "x".join(str(d) for d in op.output_shape.dims)
                fused = " (fused)" if op.is_fused_away else ""
                lines.append(
                    f"{op.name[:24]:24s} {type(op).__name__[:18]:18s} "
                    f"{shape:>18s} {op.params:>12,d} {op.macs:>14,d}{fused}"
                )
            lines.append("-" * len(header))
            lines.append(
                f"{'total':24s} {'':18s} {'':>18s} "
                f"{self.total_params:>12,d} {self.total_macs:>14,d}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Graph({self.name!r}, ops={len(self.ops)})"


class GraphBuilder:
    """Fluent construction API for model definitions.

    Every method creates one op wired to its inputs and returns it, so model
    code reads like a framework model definition::

        b = GraphBuilder("TinyNet")
        x = b.input((3, 224, 224))
        x = b.conv_bn_act(x, 32, 3, stride=2)
        x = b.global_avg_pool(x)
        x = b.dense(x, 1000)
        graph = b.build()
    """

    def __init__(self, name: str, metadata: dict | None = None):
        self.name = name
        self.metadata = dict(metadata or {})
        self._ops: list[O.Op] = []
        self._counts: dict[str, int] = {}

    def _register(self, op: O.Op) -> O.Op:
        self._ops.append(op)
        return op

    def _auto_name(self, prefix: str, name: str | None) -> str:
        if name is not None:
            return name
        self._counts[prefix] = self._counts.get(prefix, 0) + 1
        return f"{prefix}_{self._counts[prefix]}"

    # -- op constructors ----------------------------------------------------
    def input(self, shape: tuple[int, ...] | TensorShape, name: str | None = None) -> O.Op:
        if not isinstance(shape, TensorShape):
            shape = TensorShape(*shape)
        return self._register(O.Input(self._auto_name("input", name), shape))

    def conv2d(self, x: O.Op, out_channels: int, kernel, stride=1, padding="same",
               groups: int = 1, dilation: int = 1, use_bias: bool = True,
               name: str | None = None) -> O.Op:
        return self._register(O.Conv2D(
            self._auto_name("conv", name), [x], out_channels, kernel,
            stride=stride, padding=padding, groups=groups, dilation=dilation,
            use_bias=use_bias,
        ))

    def depthwise_conv2d(self, x: O.Op, kernel, stride=1, padding="same",
                         channel_multiplier: int = 1, use_bias: bool = True,
                         name: str | None = None) -> O.Op:
        return self._register(O.DepthwiseConv2D(
            self._auto_name("dwconv", name), [x], kernel, stride=stride,
            padding=padding, channel_multiplier=channel_multiplier, use_bias=use_bias,
        ))

    def conv3d(self, x: O.Op, out_channels: int, kernel, stride=1, padding="same",
               use_bias: bool = True, name: str | None = None) -> O.Op:
        return self._register(O.Conv3D(
            self._auto_name("conv3d", name), [x], out_channels, kernel,
            stride=stride, padding=padding, use_bias=use_bias,
        ))

    def dense(self, x: O.Op, units: int, use_bias: bool = True, name: str | None = None) -> O.Op:
        return self._register(O.Dense(self._auto_name("dense", name), [x], units, use_bias=use_bias))

    def batch_norm(self, x: O.Op, name: str | None = None) -> O.Op:
        return self._register(O.BatchNorm(self._auto_name("bn", name), [x]))

    def activation(self, x: O.Op, kind: str = "relu", name: str | None = None) -> O.Op:
        return self._register(O.Activation(self._auto_name(kind, name), [x], kind=kind))

    def relu(self, x: O.Op, name: str | None = None) -> O.Op:
        return self.activation(x, "relu", name)

    def max_pool(self, x: O.Op, kernel, stride=None, padding="valid",
                 ceil_mode: bool = False, name: str | None = None) -> O.Op:
        return self._register(O.Pool2D(
            self._auto_name("maxpool", name), [x], kernel, stride=stride,
            padding=padding, kind="max", ceil_mode=ceil_mode,
        ))

    def avg_pool(self, x: O.Op, kernel, stride=None, padding="valid",
                 name: str | None = None) -> O.Op:
        return self._register(O.Pool2D(
            self._auto_name("avgpool", name), [x], kernel, stride=stride,
            padding=padding, kind="avg",
        ))

    def max_pool3d(self, x: O.Op, kernel, stride=None, padding="valid",
                   ceil_mode: bool = False, name: str | None = None) -> O.Op:
        return self._register(O.Pool3D(
            self._auto_name("maxpool3d", name), [x], kernel, stride=stride,
            padding=padding, kind="max", ceil_mode=ceil_mode,
        ))

    def global_avg_pool(self, x: O.Op, name: str | None = None) -> O.Op:
        return self._register(O.GlobalPool2D(self._auto_name("gap", name), [x], kind="avg"))

    def add(self, *xs: O.Op, name: str | None = None) -> O.Op:
        return self._register(O.Add(self._auto_name("add", name), list(xs)))

    def concat(self, *xs: O.Op, name: str | None = None) -> O.Op:
        return self._register(O.Concat(self._auto_name("concat", name), list(xs)))

    def flatten(self, x: O.Op, name: str | None = None) -> O.Op:
        return self._register(O.Flatten(self._auto_name("flatten", name), [x]))

    def reshape(self, x: O.Op, shape: tuple[int, ...], name: str | None = None) -> O.Op:
        return self._register(O.Reshape(self._auto_name("reshape", name), [x], TensorShape(*shape)))

    def dropout(self, x: O.Op, rate: float = 0.5, name: str | None = None) -> O.Op:
        return self._register(O.Dropout(self._auto_name("dropout", name), [x], rate=rate))

    def softmax(self, x: O.Op, name: str | None = None) -> O.Op:
        return self._register(O.Softmax(self._auto_name("softmax", name), [x]))

    def lrn(self, x: O.Op, size: int = 5, name: str | None = None) -> O.Op:
        return self._register(O.LocalResponseNorm(self._auto_name("lrn", name), [x], size=size))

    def upsample(self, x: O.Op, factor: int = 2, name: str | None = None) -> O.Op:
        return self._register(O.Upsample2D(self._auto_name("upsample", name), [x], factor=factor))

    def pad(self, x: O.Op, pad: tuple[int, int], name: str | None = None) -> O.Op:
        return self._register(O.Pad(self._auto_name("pad", name), [x], pad=pad))

    def embedding(self, x: O.Op, vocab_size: int, dim: int,
                  name: str | None = None) -> O.Op:
        return self._register(O.Embedding(
            self._auto_name("embedding", name), [x], vocab_size=vocab_size, dim=dim))

    def lstm(self, x: O.Op, hidden: int, return_sequences: bool = True,
             name: str | None = None) -> O.Op:
        return self._register(O.LSTM(
            self._auto_name("lstm", name), [x], hidden=hidden,
            return_sequences=return_sequences))

    def gru(self, x: O.Op, hidden: int, return_sequences: bool = True,
            name: str | None = None) -> O.Op:
        return self._register(O.GRU(
            self._auto_name("gru", name), [x], hidden=hidden,
            return_sequences=return_sequences))

    def last_timestep(self, x: O.Op, name: str | None = None) -> O.Op:
        return self._register(O.LastTimestep(self._auto_name("last", name), [x]))

    def detection_output(self, x: O.Op, num_anchors: int, num_classes: int,
                         name: str | None = None) -> O.Op:
        return self._register(O.DetectionOutput(
            self._auto_name("detect", name), [x], num_anchors=num_anchors, num_classes=num_classes,
        ))

    # -- common composites ---------------------------------------------------
    def conv_bn_act(self, x: O.Op, out_channels: int, kernel, stride=1,
                    padding="same", groups: int = 1, act: str = "relu",
                    use_bias: bool = False, name: str | None = None) -> O.Op:
        """Conv → BatchNorm → activation, the dominant CNN building block."""
        x = self.conv2d(x, out_channels, kernel, stride=stride, padding=padding,
                        groups=groups, use_bias=use_bias, name=name)
        x = self.batch_norm(x)
        if act != "linear":
            x = self.activation(x, act)
        return x

    def dw_bn_act(self, x: O.Op, kernel, stride=1, padding="same",
                  act: str = "relu", name: str | None = None) -> O.Op:
        """Depthwise conv → BatchNorm → activation (MobileNet/Xception)."""
        x = self.depthwise_conv2d(x, kernel, stride=stride, padding=padding,
                                  use_bias=False, name=name)
        x = self.batch_norm(x)
        if act != "linear":
            x = self.activation(x, act)
        return x

    def build(self) -> Graph:
        return Graph(self.name, self._ops, metadata=self.metadata)
