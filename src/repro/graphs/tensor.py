"""Tensor shapes and datatypes.

Shapes are channel-first without the batch dimension: the paper studies
single-batch inference exclusively (Section I), so batch is always 1 and is
omitted.  Image tensors are ``(channels, height, width)``; video tensors for
C3D are ``(channels, frames, height, width)``; flat tensors are
``(features,)``.

Dimensions may be symbolic (:class:`repro.graphs.symbolic.SymDim`): the shapes
pass builds shapes over a free batch ``N`` or sequence ``SEQ`` dim to verify a
graph for *all* bindings, not just the stored concrete one.  Zoo graphs and
the execution engine only ever see concrete shapes; byte accounting therefore
requires concreteness (``bytes()`` raises on symbolic dims — evaluate first).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.graphs.symbolic import (
    Dim,
    SymDim,
    ceil_div,
    evaluate_dim,
    prod_dims,
)


#: Bits per element, keyed by :class:`DType` value.
_BITS = {"fp32": 32, "fp16": 16, "int8": 8, "binary": 1}
#: Bytes per element (``bits / 8``), keyed by :class:`DType` value.
_BYTES = {value: bits / 8 for value, bits in _BITS.items()}


class DType(enum.Enum):
    """Numeric datatypes the studied frameworks deploy with (Table II).

    ``BINARY`` is the 1-bit weight type used by FINN on the PYNQ board.
    """

    FP32 = "fp32"
    FP16 = "fp16"
    INT8 = "int8"
    BINARY = "binary"

    @property
    def bits(self) -> int:
        return _BITS[self._value_]

    @property
    def bytes(self) -> float:
        """Bytes per element; fractional for sub-byte types."""
        return _BYTES[self._value_]


@dataclass(frozen=True)
class TensorShape:
    """An immutable tensor shape (no batch dimension).

    Dims are positive ints, or :class:`SymDim` expressions when built by the
    graph pass for symbolic-binding verification.
    """

    dims: tuple[Dim, ...]

    def __init__(self, *dims: Dim):
        if len(dims) == 1 and isinstance(dims[0], (tuple, list)):
            dims = tuple(dims[0])
        if not dims:
            raise ValueError("a tensor shape needs at least one dimension")
        for d in dims:
            if isinstance(d, SymDim):
                continue
            if not isinstance(d, int) or d <= 0:
                raise ValueError(f"dimensions must be positive integers, got {dims}")
        object.__setattr__(self, "dims", tuple(dims))

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def numel(self) -> Dim:
        return prod_dims(self.dims)

    @property
    def channels(self) -> Dim:
        """Channel count for channel-first feature maps; features for rank 1."""
        return self.dims[0]

    @property
    def spatial(self) -> tuple[Dim, ...]:
        """Spatial (and temporal, for video) dimensions after the channels."""
        return self.dims[1:]

    @property
    def is_concrete(self) -> bool:
        return all(isinstance(d, int) for d in self.dims)

    def evaluate(self, bindings: dict[str, int]) -> "TensorShape":
        """Concretize symbolic dims at the given bindings."""
        return TensorShape(*(evaluate_dim(d, bindings) for d in self.dims))

    def bytes(self, dtype: DType = DType.FP32) -> int:
        if not self.is_concrete:
            raise TypeError(f"byte accounting needs concrete dims, got {self}")
        return math.ceil(self.numel * dtype.bytes)

    def with_channels(self, channels: Dim) -> "TensorShape":
        return TensorShape(channels, *self.dims[1:])

    def flattened(self) -> "TensorShape":
        return TensorShape(self.numel)

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, index: int) -> Dim:
        return self.dims[index]

    def __repr__(self) -> str:
        return f"TensorShape{self.dims}"


def conv_output_length(length: Dim, kernel: int, stride: int, padding: str | int,
                       dilation: int = 1) -> Dim:
    """Output length of a convolution along one spatial axis.

    ``padding`` follows framework conventions: ``"same"`` (output =
    ceil(in/stride)), ``"valid"`` (no padding), or an explicit pad count
    applied to both sides (the PyTorch/Caffe style).

    Symbolic ``length`` returns a symbolic expression and skips the
    collapse check — feasibility is then the graph pass's job (SHAPE006),
    verified per concrete binding.
    """
    effective_kernel = (kernel - 1) * dilation + 1
    if padding == "same":
        if isinstance(length, SymDim):
            return ceil_div(length, stride)
        return math.ceil(length / stride)
    if padding == "valid":
        pad = 0
    elif isinstance(padding, int):
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        pad = padding
    else:
        raise ValueError(f"unsupported padding spec: {padding!r}")
    out = (length + 2 * pad - effective_kernel) // stride + 1
    if isinstance(out, SymDim):
        return out
    if out <= 0:
        raise ValueError(
            f"convolution output collapsed to {out} "
            f"(length={length}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def pool_output_length(length: Dim, kernel: int, stride: int, padding: str | int,
                       ceil_mode: bool = False) -> Dim:
    """Output length of a pooling window along one spatial axis.

    Same conventions as :func:`conv_output_length`; ``ceil_mode`` rounds the
    window count up (the Caffe/PyTorch option C3D's pools rely on).
    """
    if padding == "same":
        if isinstance(length, SymDim):
            return ceil_div(length, stride)
        return math.ceil(length / stride)
    if padding == "valid":
        pad = 0
    elif isinstance(padding, int):
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        pad = padding
    else:
        raise ValueError(f"unsupported padding spec: {padding!r}")
    numerator = length + 2 * pad - kernel
    if isinstance(numerator, SymDim):
        return (ceil_div(numerator, stride) if ceil_mode
                else numerator // stride) + 1
    if ceil_mode:
        out = math.ceil(numerator / stride) + 1
    else:
        out = numerator // stride + 1
    if out <= 0:
        raise ValueError(
            f"pool output collapsed to {out} (length={length}, kernel={kernel}, stride={stride})"
        )
    return out
