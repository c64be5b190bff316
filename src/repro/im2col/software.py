"""Software im2col — the reference the hardware feeder must match.

``im2col`` flattens every convolution window of the (padded) IFMAP into one
row of a matrix; multiplying by the flattened filter bank then performs the
convolution as a single GEMM.  The element order inside a row is
channel-major, then kernel-row, then kernel-column, matching how
``filters.reshape(F, -1)`` flattens the filter tensor.

Both lowerings here are reshapes of one strided view, :func:`conv_windows`,
so no Python loop visits an output pixel.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.golden.conv import conv_output_shape


def conv_windows(
    ifmap: np.ndarray,
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Read-only ``(C, R, S, P, Q)`` view of every convolution window.

    Element ``[c, r, s, p, q]`` is the (zero-padded) IFMAP value that filter
    tap ``(c, r, s)`` multiplies for output pixel ``(p, q)``, so the view's
    ``(C*R*S, P*Q)`` reshape is the lowered GEMM's ``B`` operand.  Arguments
    as for :func:`im2col`.  With ``padding > 0`` the view is over a
    zero-filled copy of the IFMAP, otherwise over ``ifmap`` itself.

    >>> windows = conv_windows(np.arange(16.0).reshape(1, 4, 4), (2, 2), stride=2)
    >>> windows.shape, windows[0, :, :, 1, 0].tolist()
    ((1, 2, 2, 2, 2), [[8.0, 9.0], [12.0, 13.0]])
    """
    ifmap = np.asarray(ifmap, dtype=np.float64)
    if ifmap.ndim != 3:
        raise ValueError(f"ifmap must have shape (C, H, W), got {ifmap.shape}")
    k_h, k_w = kernel
    channels, height, width = ifmap.shape
    out_h = conv_output_shape(height, k_h, stride, padding)
    out_w = conv_output_shape(width, k_w, stride, padding)
    if padding:
        padded = np.zeros((channels, height + 2 * padding, width + 2 * padding))
        padded[:, padding : padding + height, padding : padding + width] = ifmap
        ifmap = padded
    c_step, h_step, w_step = ifmap.strides
    # In bounds: the last window starts at (P - 1) * stride <= H + 2 * padding - R.
    return as_strided(
        ifmap,
        shape=(channels, k_h, k_w, out_h, out_w),
        strides=(c_step, h_step, w_step, h_step * stride, w_step * stride),
        writeable=False,
    )


def im2col(
    ifmap: np.ndarray,
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Lower an IFMAP into the im2col matrix.

    Parameters
    ----------
    ifmap:
        Input feature map of shape ``(C, H, W)``.
    kernel:
        Kernel spatial shape ``(R, S)``.
    stride, padding:
        Convolution hyper-parameters.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(P * Q, C * R * S)`` where ``P`` and ``Q`` are the
        output spatial dimensions; row ``p * Q + q`` is the flattened window
        that produces output pixel ``(p, q)``.
    """
    windows = conv_windows(ifmap, kernel, stride, padding)
    *_, out_h, out_w = windows.shape
    return windows.transpose(3, 4, 0, 1, 2).reshape(out_h * out_w, -1)


def im2col_row_major_windows(
    ifmap_row: np.ndarray, kernel_width: int, stride: int = 1
) -> np.ndarray:
    """1-D sliding windows over a single IFMAP row.

    This is the per-row view the paper uses to explain the on-chip reuse
    pattern (Fig. 7): consecutive windows over one IFMAP row share
    ``kernel_width - 1`` elements when the stride is 1.

    Returns a read-only view of shape ``(num_windows, kernel_width)``.
    """
    row = np.asarray(ifmap_row, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError("ifmap_row must be 1-D")
    if row.shape[0] < kernel_width:
        raise ValueError("row shorter than kernel width")
    return conv_windows(row[None, None], (1, kernel_width), stride)[0, 0, :, 0].T


def col2im_output(flat_output: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Reshape a GEMM output of shape ``(F, P*Q)`` back into ``(F, P, Q)``."""
    flat_output = np.asarray(flat_output)
    if flat_output.ndim != 2:
        raise ValueError("flat_output must be 2-D (filters, P*Q)")
    if flat_output.shape[1] != out_h * out_w:
        raise ValueError(
            f"flat output has {flat_output.shape[1]} pixels, expected {out_h * out_w}"
        )
    return flat_output.reshape(flat_output.shape[0], out_h, out_w)
