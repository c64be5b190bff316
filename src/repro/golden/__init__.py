"""Golden (reference) numerical models.

Every cycle-accurate simulator in this repository is validated against the
functions in this package.  They are deliberately written as straightforward
numpy code so that their correctness is obvious by inspection.
"""

from repro.golden.gemm import gemm, gemv, batched_gemm
from repro.golden.conv import (
    conv2d,
    depthwise_conv2d,
    conv_output_shape,
)

__all__ = [
    "gemm",
    "gemv",
    "batched_gemm",
    "conv2d",
    "depthwise_conv2d",
    "conv_output_shape",
]
