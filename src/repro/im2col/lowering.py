"""Convolution → GEMM lowering (shapes and operands).

A convolution layer with ``F`` filters of shape ``(C, R, S)`` applied to an
IFMAP of shape ``(C, H, W)`` with stride ``stride`` and padding ``padding``
lowers to the GEMM

    ``(F, C*R*S) x (C*R*S, P*Q)``

i.e. ``M = F``, ``K = C*R*S``, ``N = P*Q`` — exactly the mapping used by the
Conv entries in the paper's Table 3 (e.g. ResNet50_0 is the 7x7/stride-2 stem:
M=64, K=3*7*7=147, N=250*250=62500 for a 500x500 padded input).

Two lowering levels live here:

* **shape-only** — :func:`lower_conv_to_gemm` maps a :class:`ConvShape` to
  the equivalent :class:`GemmShape`; this is all the analytical runtime /
  traffic models need.
* **operand-level** — :func:`lower_conv_operands` additionally materializes
  the GEMM operands from real IFMAP / filter tensors (the window view of
  :mod:`repro.im2col.software`), which is what
  :meth:`repro.api._AcceleratorBase.run_conv` feeds through the batched
  wavefront engine; :func:`conv_shape_from_tensors` recovers the
  :class:`ConvShape` the tensors describe.

>>> shape = ConvShape("stem", in_channels=3, ifmap_h=8, ifmap_w=8,
...                   kernel_h=3, kernel_w=3, num_filters=4,
...                   stride=2, padding=1)
>>> gemm = lower_conv_to_gemm(shape)
>>> (gemm.m, gemm.k, gemm.n)
(4, 27, 16)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.golden.conv import conv_output_shape
from repro.im2col.software import conv_windows


@dataclass(frozen=True)
class ConvShape:
    """Shape description of one convolution layer.

    Attributes
    ----------
    name:
        Layer identifier used in reports.
    in_channels:
        ``C`` — IFMAP channels.
    ifmap_h, ifmap_w:
        IFMAP spatial dimensions (pre-padding).
    kernel_h, kernel_w:
        Filter spatial dimensions ``R`` x ``S``.
    num_filters:
        ``F`` — number of output channels.
    stride:
        Spatial stride (same in both dimensions).
    padding:
        Zero padding (same on all sides).
    depthwise:
        Whether this is a depthwise convolution (one filter per channel,
        no cross-channel reduction).
    """

    name: str
    in_channels: int
    ifmap_h: int
    ifmap_w: int
    kernel_h: int
    kernel_w: int
    num_filters: int
    stride: int = 1
    padding: int = 0
    depthwise: bool = False

    def __post_init__(self) -> None:
        for field_name in (
            "in_channels",
            "ifmap_h",
            "ifmap_w",
            "kernel_h",
            "kernel_w",
            "num_filters",
            "stride",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.padding < 0:
            raise ValueError("padding must be non-negative")
        if self.depthwise and self.num_filters != self.in_channels:
            raise ValueError(
                "depthwise convolution requires num_filters == in_channels"
            )

    @property
    def out_h(self) -> int:
        """Output feature-map height ``P``."""
        return conv_output_shape(self.ifmap_h, self.kernel_h, self.stride, self.padding)

    @property
    def out_w(self) -> int:
        """Output feature-map width ``Q``."""
        return conv_output_shape(self.ifmap_w, self.kernel_w, self.stride, self.padding)

    @property
    def output_pixels(self) -> int:
        """Number of output pixels ``P * Q``."""
        return self.out_h * self.out_w

    @property
    def window_elements(self) -> int:
        """Elements per convolution window (``C*R*S``, or ``R*S`` depthwise)."""
        if self.depthwise:
            return self.kernel_h * self.kernel_w
        return self.in_channels * self.kernel_h * self.kernel_w

    @property
    def ifmap_elements(self) -> int:
        """Unique IFMAP elements (pre-padding)."""
        return self.in_channels * self.ifmap_h * self.ifmap_w

    @property
    def filter_elements(self) -> int:
        """Total filter elements."""
        if self.depthwise:
            return self.in_channels * self.kernel_h * self.kernel_w
        return self.num_filters * self.window_elements

    @property
    def ofmap_elements(self) -> int:
        """Total OFMAP elements."""
        return self.num_filters * self.output_pixels

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the layer."""
        if self.depthwise:
            return self.in_channels * self.output_pixels * self.kernel_h * self.kernel_w
        return self.num_filters * self.output_pixels * self.window_elements


@dataclass(frozen=True)
class GemmShape:
    """A GEMM problem ``(M, K) x (K, N)`` with an identifying name."""

    name: str
    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.m <= 0 or self.k <= 0 or self.n <= 0:
            raise ValueError(f"GEMM dimensions must be positive: {self}")

    @property
    def macs(self) -> int:
        """Multiply-accumulate count ``M*K*N``."""
        return self.m * self.k * self.n


def lower_conv_to_gemm(conv: ConvShape) -> GemmShape:
    """Lower a convolution layer to the equivalent GEMM shape.

    Standard convolutions lower to ``M=F, K=C*R*S, N=P*Q``.  Depthwise
    convolutions are lowered per channel and expressed as a single GEMM with
    ``M=C`` (one "filter" row per channel), ``K=R*S`` and ``N=P*Q``; the
    runtime model treats the channels as independent single-filter GEMMs,
    which is how the paper evaluates DW-conv (Fig. 14).
    """
    if conv.depthwise:
        return GemmShape(
            name=conv.name,
            m=conv.in_channels,
            k=conv.kernel_h * conv.kernel_w,
            n=conv.output_pixels,
        )
    return GemmShape(
        name=conv.name,
        m=conv.num_filters,
        k=conv.window_elements,
        n=conv.output_pixels,
    )


def conv_shape_from_tensors(
    ifmap: np.ndarray,
    filters: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    name: str = "conv",
) -> ConvShape:
    """Recover the :class:`ConvShape` a pair of real tensors describes.

    ``ifmap`` must be ``(C, H, W)`` and ``filters`` ``(F, C, R, S)`` — the
    layouts of :mod:`repro.golden.conv`.  Raises :class:`ValueError` on rank
    or channel mismatches, so callers get the same validation
    ``repro.golden.conv.conv2d`` applies before any lowering happens.

    >>> import numpy as np
    >>> shape = conv_shape_from_tensors(np.zeros((3, 8, 8)),
    ...                                 np.zeros((4, 3, 3, 3)), padding=1)
    >>> (shape.num_filters, shape.window_elements, shape.output_pixels)
    (4, 27, 64)
    """
    ifmap = np.asarray(ifmap)
    filters = np.asarray(filters)
    if ifmap.ndim != 3:
        raise ValueError(f"ifmap must have shape (C, H, W), got {ifmap.shape}")
    if filters.ndim != 4:
        raise ValueError(f"filters must have shape (F, C, R, S), got {filters.shape}")
    channels, height, width = ifmap.shape
    num_filters, f_channels, kernel_h, kernel_w = filters.shape
    if channels != f_channels:
        raise ValueError(
            f"channel mismatch: ifmap has {channels}, filters expect {f_channels}"
        )
    return ConvShape(
        name=name,
        in_channels=channels,
        ifmap_h=height,
        ifmap_w=width,
        kernel_h=kernel_h,
        kernel_w=kernel_w,
        num_filters=num_filters,
        stride=stride,
        padding=padding,
    )


def lower_conv_operands(
    ifmap: np.ndarray,
    filters: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    name: str = "conv",
) -> tuple[np.ndarray, np.ndarray, ConvShape]:
    """Materialize the GEMM operands of an im2col-lowered convolution.

    Returns ``(a, b, shape)`` with ``a = (F, C*R*S)`` (each filter
    flattened into one row), ``b = (C*R*S, P*Q)`` (each convolution window
    flattened into one column, C-contiguous) and the recovered
    :class:`ConvShape`, so that ``a @ b`` is the flattened OFMAP: folding
    it back with :func:`repro.im2col.software.col2im_output` reproduces
    ``repro.golden.conv.conv2d`` exactly.  The shape is derived (and the
    tensors validated) exactly once, here — callers that need the geometry
    take it from the return value instead of re-deriving it.

    ``b`` is one C-order copy of the window view
    (:func:`repro.im2col.software.conv_windows`), so downstream consumers —
    the batched wavefront engine and the serving layer's stacked-matmul
    fast path, which writes the same view into its slots — all multiply
    identically-laid-out operands and stay bit-exact with each other.
    """
    shape = conv_shape_from_tensors(ifmap, filters, stride, padding, name=name)
    windows = conv_windows(ifmap, (shape.kernel_h, shape.kernel_w), stride, padding)
    a = np.asarray(filters, dtype=np.float64).reshape(shape.num_filters, -1)
    b = windows.copy().reshape(shape.window_elements, shape.output_pixels)
    return a, b, shape
