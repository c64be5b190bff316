"""Reference 2-D convolution implementations.

The convolutions here use the "cross-correlation" convention used by deep
learning frameworks (no kernel flip), which is also the convention assumed by
the paper when it lowers convolution to GEMM through im2col.

Tensor layout conventions
-------------------------
* IFMAP: ``(C, H, W)`` — channels, height, width.
* FILTER: ``(F, C, R, S)`` — number of filters, channels, kernel height,
  kernel width.
* OFMAP: ``(F, P, Q)`` — filters, output height, output width.
"""

from __future__ import annotations

import numpy as np


def conv_output_shape(
    in_size: int, kernel: int, stride: int = 1, padding: int = 0
) -> int:
    """Return the output spatial size of a convolution along one dimension."""
    if kernel <= 0 or stride <= 0:
        raise ValueError("kernel and stride must be positive")
    if padding < 0:
        raise ValueError("padding must be non-negative")
    out = (in_size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces empty output (in={in_size}, k={kernel}, "
            f"stride={stride}, pad={padding})"
        )
    return out


def _pad_ifmap(ifmap: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return ifmap
    return np.pad(ifmap, ((0, 0), (padding, padding), (padding, padding)))


def conv2d(
    ifmap: np.ndarray,
    filters: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Direct (loop-based, vectorised per window) 2-D convolution.

    Parameters
    ----------
    ifmap:
        Input feature map of shape ``(C, H, W)``.
    filters:
        Filter bank of shape ``(F, C, R, S)``.
    stride, padding:
        Common convolution hyper-parameters (same along both spatial axes).
    """
    ifmap = np.asarray(ifmap, dtype=np.float64)
    filters = np.asarray(filters, dtype=np.float64)
    if ifmap.ndim != 3:
        raise ValueError(f"ifmap must have shape (C, H, W), got {ifmap.shape}")
    if filters.ndim != 4:
        raise ValueError(f"filters must have shape (F, C, R, S), got {filters.shape}")
    channels, height, width = ifmap.shape
    num_filters, f_channels, k_h, k_w = filters.shape
    if channels != f_channels:
        raise ValueError(
            f"channel mismatch: ifmap has {channels}, filters expect {f_channels}"
        )
    out_h = conv_output_shape(height, k_h, stride, padding)
    out_w = conv_output_shape(width, k_w, stride, padding)
    padded = _pad_ifmap(ifmap, padding)
    ofmap = np.zeros((num_filters, out_h, out_w), dtype=np.float64)
    for row in range(out_h):
        for col in range(out_w):
            window = padded[
                :, row * stride : row * stride + k_h, col * stride : col * stride + k_w
            ]
            # einsum with a pinned float64 accumulator: np.tensordot offers
            # no dtype parameter, and the reference model's accumulation
            # must never float with NumPy's promotion rules (RPL104).
            ofmap[:, row, col] = np.einsum(
                "fcrs,crs->f", filters, window, dtype=np.float64
            )
    return ofmap


def depthwise_conv2d(
    ifmap: np.ndarray,
    filters: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Depthwise 2-D convolution (one filter per input channel).

    Parameters
    ----------
    ifmap:
        Input feature map of shape ``(C, H, W)``.
    filters:
        Per-channel filters of shape ``(C, R, S)``.
    """
    ifmap = np.asarray(ifmap, dtype=np.float64)
    filters = np.asarray(filters, dtype=np.float64)
    if ifmap.ndim != 3 or filters.ndim != 3:
        raise ValueError("expected ifmap (C, H, W) and filters (C, R, S)")
    if ifmap.shape[0] != filters.shape[0]:
        raise ValueError("depthwise conv requires one filter per channel")
    channels = ifmap.shape[0]
    k_h, k_w = filters.shape[1], filters.shape[2]
    out_h = conv_output_shape(ifmap.shape[1], k_h, stride, padding)
    out_w = conv_output_shape(ifmap.shape[2], k_w, stride, padding)
    padded = _pad_ifmap(ifmap, padding)
    ofmap = np.zeros((channels, out_h, out_w), dtype=np.float64)
    for row in range(out_h):
        for col in range(out_w):
            window = padded[
                :, row * stride : row * stride + k_h, col * stride : col * stride + k_w
            ]
            ofmap[:, row, col] = np.einsum(
                "crs,crs->c", window, filters, dtype=np.float64
            )
    return ofmap
