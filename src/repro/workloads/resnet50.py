"""ResNet50 convolution layers (He et al., 2016).

The layer table is generated from the standard bottleneck architecture so
that every stage / block / branch is represented with its exact shape.  The
default input resolution is the canonical 224x224; the paper's Table 3 entry
``Resnet50_0_conv2d`` (N = 62500 output pixels) implies the authors lowered
the stem at a larger input resolution, so the resolution is a parameter.
``benchmarks/bench_sec52_dram_energy.py`` reproduces its numbers from the
default 224x224 table (``RESNET50_CONV_LAYERS``).

Only convolution layers are listed (the paper's DRAM-traffic numbers are for
conv layers only); the final fully-connected layer is excluded.
"""

from __future__ import annotations

from repro.im2col.lowering import ConvShape


def _bottleneck_stage(
    stage_name: str,
    in_channels: int,
    mid_channels: int,
    out_channels: int,
    spatial: int,
    num_blocks: int,
    first_stride: int,
) -> list[ConvShape]:
    """Expand one ResNet50 bottleneck stage into its convolution layers."""
    layers: list[ConvShape] = []
    current_in = in_channels
    current_spatial = spatial
    for block in range(num_blocks):
        stride = first_stride if block == 0 else 1
        out_spatial = current_spatial // stride
        prefix = f"{stage_name}_block{block}"
        layers.append(
            ConvShape(
                name=f"{prefix}_conv1x1a",
                in_channels=current_in,
                ifmap_h=current_spatial,
                ifmap_w=current_spatial,
                kernel_h=1,
                kernel_w=1,
                num_filters=mid_channels,
                stride=1,
                padding=0,
            )
        )
        layers.append(
            ConvShape(
                name=f"{prefix}_conv3x3",
                in_channels=mid_channels,
                ifmap_h=current_spatial,
                ifmap_w=current_spatial,
                kernel_h=3,
                kernel_w=3,
                num_filters=mid_channels,
                stride=stride,
                padding=1,
            )
        )
        layers.append(
            ConvShape(
                name=f"{prefix}_conv1x1b",
                in_channels=mid_channels,
                ifmap_h=out_spatial,
                ifmap_w=out_spatial,
                kernel_h=1,
                kernel_w=1,
                num_filters=out_channels,
                stride=1,
                padding=0,
            )
        )
        if block == 0:
            layers.append(
                ConvShape(
                    name=f"{prefix}_downsample",
                    in_channels=current_in,
                    ifmap_h=current_spatial,
                    ifmap_w=current_spatial,
                    kernel_h=1,
                    kernel_w=1,
                    num_filters=out_channels,
                    stride=stride,
                    padding=0,
                )
            )
        current_in = out_channels
        current_spatial = out_spatial
    return layers


def resnet50_conv_layers(input_size: int = 224) -> tuple[ConvShape, ...]:
    """All convolution layers of ResNet50 for a square RGB input.

    Parameters
    ----------
    input_size:
        Input image resolution (224 for the canonical ImageNet setting).
    """
    if input_size < 32 or input_size % 32:
        raise ValueError("input_size must be a positive multiple of 32 (>= 32)")
    layers: list[ConvShape] = [
        ConvShape(
            name="conv1_stem",
            in_channels=3,
            ifmap_h=input_size,
            ifmap_w=input_size,
            kernel_h=7,
            kernel_w=7,
            num_filters=64,
            stride=2,
            padding=3,
        )
    ]
    # After the stem (stride 2) and the 3x3/stride-2 max pool.
    stage_spatial = input_size // 4
    layers += _bottleneck_stage("conv2", 64, 64, 256, stage_spatial, 3, 1)
    layers += _bottleneck_stage("conv3", 256, 128, 512, stage_spatial, 4, 2)
    layers += _bottleneck_stage("conv4", 512, 256, 1024, stage_spatial // 2, 6, 2)
    layers += _bottleneck_stage("conv5", 1024, 512, 2048, stage_spatial // 4, 3, 2)
    return tuple(layers)


#: ResNet50 at the canonical 224x224 input resolution.
RESNET50_CONV_LAYERS: tuple[ConvShape, ...] = resnet50_conv_layers(224)
