"""YOLOv3 convolution layers (Redmon & Farhadi, 2018).

The table covers the Darknet-53 backbone plus the three detection heads at
the standard 416x416 input resolution.  Layer shapes follow the published
configuration: alternating 3x3 (stride 1 or 2) and 1x1 convolutions with
residual blocks repeated (1, 2, 8, 8, 4) times, then three YOLO heads at
13x13, 26x26 and 52x52.

As with ResNet50, absolute DRAM-traffic megabytes depend on the exact input
resolution and on which layers the original authors counted; the resolution
is therefore a parameter.  ``benchmarks/bench_sec52_dram_energy.py``
reproduces its numbers from the default 416x416 table
(``YOLOV3_CONV_LAYERS``).
"""

from __future__ import annotations

from repro.im2col.lowering import ConvShape


def _conv(
    name: str,
    in_channels: int,
    spatial: int,
    kernel: int,
    filters: int,
    stride: int = 1,
) -> ConvShape:
    return ConvShape(
        name=name,
        in_channels=in_channels,
        ifmap_h=spatial,
        ifmap_w=spatial,
        kernel_h=kernel,
        kernel_w=kernel,
        num_filters=filters,
        stride=stride,
        padding=kernel // 2,
    )


def _residual_stage(
    stage: str, in_channels: int, spatial: int, num_blocks: int
) -> list[ConvShape]:
    """One Darknet-53 residual stage: blocks of (1x1 half, 3x3 full)."""
    half = in_channels // 2
    layers: list[ConvShape] = []
    for block in range(num_blocks):
        layers.append(_conv(f"{stage}_block{block}_1x1", in_channels, spatial, 1, half))
        layers.append(_conv(f"{stage}_block{block}_3x3", half, spatial, 3, in_channels))
    return layers


def _detection_head(
    name: str, in_channels: int, mid_channels: int, spatial: int, num_outputs: int = 255
) -> list[ConvShape]:
    """A YOLOv3 detection head: five alternating convs, a 3x3 and a 1x1 output."""
    layers: list[ConvShape] = []
    channels = in_channels
    for idx in range(5):
        if idx % 2 == 0:
            layers.append(_conv(f"{name}_conv{idx}_1x1", channels, spatial, 1, mid_channels))
            channels = mid_channels
        else:
            layers.append(_conv(f"{name}_conv{idx}_3x3", channels, spatial, 3, mid_channels * 2))
            channels = mid_channels * 2
    layers.append(_conv(f"{name}_conv5_3x3", channels, spatial, 3, mid_channels * 2))
    layers.append(_conv(f"{name}_output_1x1", mid_channels * 2, spatial, 1, num_outputs))
    return layers


def yolov3_conv_layers(input_size: int = 416) -> tuple[ConvShape, ...]:
    """All convolution layers of YOLOv3 for a square input.

    Parameters
    ----------
    input_size:
        Input image resolution; must be a multiple of 32 (the network
        downsamples by 32 overall).  The standard setting is 416.
    """
    if input_size < 64 or input_size % 32:
        raise ValueError("input_size must be a multiple of 32 (>= 64)")
    s = input_size
    layers: list[ConvShape] = [
        _conv("darknet_conv0_3x3", 3, s, 3, 32),
        _conv("darknet_down1_3x3_s2", 32, s, 3, 64, stride=2),
    ]
    s //= 2
    layers += _residual_stage("darknet_stage1", 64, s, 1)
    layers.append(_conv("darknet_down2_3x3_s2", 64, s, 3, 128, stride=2))
    s //= 2
    layers += _residual_stage("darknet_stage2", 128, s, 2)
    layers.append(_conv("darknet_down3_3x3_s2", 128, s, 3, 256, stride=2))
    s //= 2
    layers += _residual_stage("darknet_stage3", 256, s, 8)
    stage3_spatial = s
    layers.append(_conv("darknet_down4_3x3_s2", 256, s, 3, 512, stride=2))
    s //= 2
    layers += _residual_stage("darknet_stage4", 512, s, 8)
    stage4_spatial = s
    layers.append(_conv("darknet_down5_3x3_s2", 512, s, 3, 1024, stride=2))
    s //= 2
    layers += _residual_stage("darknet_stage5", 1024, s, 4)

    # Detection heads: 13x13 on the deepest features, then upsample + concat.
    layers += _detection_head("head_large", 1024, 512, s)
    layers.append(_conv("neck_large_to_medium_1x1", 512, s, 1, 256))
    layers += _detection_head("head_medium", 256 + 512, 256, stage4_spatial)
    layers.append(_conv("neck_medium_to_small_1x1", 256, stage4_spatial, 1, 128))
    layers += _detection_head("head_small", 128 + 256, 128, stage3_spatial)
    return tuple(layers)


#: YOLOv3 at the standard 416x416 input resolution.
YOLOV3_CONV_LAYERS: tuple[ConvShape, ...] = yolov3_conv_layers(416)
