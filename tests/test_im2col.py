"""Tests for software im2col, conv lowering, reuse analysis and traffic models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.golden import conv2d
from repro.im2col import (
    ConvShape,
    col2im_output,
    im2col,
    im2col_matrix_elements,
    im2col_row_major_windows,
    lower_conv_to_gemm,
    onchip_im2col_traffic,
    repetition_fraction,
    software_im2col_traffic,
    traffic_reduction,
    unique_ifmap_elements,
    window_overlap_elements,
)
from repro.im2col.reuse_analysis import (
    reused_elements_per_period,
    single_row_repetition_fraction,
)
from repro.im2col.software import conv_windows
from repro.im2col.traffic import network_traffic


def _im2col_by_window(ifmap, kernel, stride, padding):
    """The per-output-pixel loop ``im2col`` replaced, kept as its reference."""
    k_h, k_w = kernel
    padded = np.pad(ifmap, ((0, 0), (padding, padding), (padding, padding)))
    out_h = (padded.shape[1] - k_h) // stride + 1
    out_w = (padded.shape[2] - k_w) // stride + 1
    rows = [
        padded[:, p * stride : p * stride + k_h, q * stride : q * stride + k_w].ravel()
        for p in range(out_h)
        for q in range(out_w)
    ]
    return np.array(rows)


def _paper_example_layer() -> ConvShape:
    """The 3x3 filter on a 6x6 single-channel IFMAP from Fig. 7."""
    return ConvShape(
        name="fig7_example",
        in_channels=1,
        ifmap_h=6,
        ifmap_w=6,
        kernel_h=3,
        kernel_w=3,
        num_filters=1,
    )


class TestSoftwareIm2col:
    def test_shape(self, rng):
        ifmap = rng.standard_normal((3, 6, 6))
        lowered = im2col(ifmap, (3, 3))
        assert lowered.shape == (16, 27)

    def test_first_window_is_top_left_patch(self, rng):
        ifmap = rng.standard_normal((2, 5, 5))
        lowered = im2col(ifmap, (3, 3))
        np.testing.assert_allclose(lowered[0], ifmap[:, :3, :3].reshape(-1))

    def test_gemm_with_flattened_filters_equals_conv(self, rng):
        ifmap = rng.standard_normal((3, 8, 8))
        filters = rng.standard_normal((4, 3, 3, 3))
        lowered = im2col(ifmap, (3, 3))
        flat = filters.reshape(4, -1) @ lowered.T
        np.testing.assert_allclose(
            col2im_output(flat, 6, 6), conv2d(ifmap, filters), atol=1e-9
        )

    def test_stride_and_padding(self, rng):
        ifmap = rng.standard_normal((1, 7, 7))
        lowered = im2col(ifmap, (3, 3), stride=2, padding=1)
        assert lowered.shape == (4 * 4, 9)

    def test_rejects_bad_ifmap_rank(self):
        with pytest.raises(ValueError, match=r"\(C, H, W\)"):
            im2col(np.zeros((5, 5)), (3, 3))

    @given(
        channels=st.integers(1, 3),
        height=st.integers(1, 9),
        width=st.integers(1, 9),
        k_h=st.integers(1, 4),
        k_w=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_the_per_window_loop(
        self, channels, height, width, k_h, k_w, stride, padding, seed
    ):
        """The strided view lowers bit for bit like a loop over the windows."""
        if height + 2 * padding < k_h or width + 2 * padding < k_w:
            return  # no window fits: conv_output_shape rejects the layer
        ifmap = np.random.default_rng(seed).standard_normal((channels, height, width))
        lowered = im2col(ifmap, (k_h, k_w), stride=stride, padding=padding)
        expected = _im2col_by_window(ifmap, (k_h, k_w), stride, padding)
        assert np.array_equal(lowered, expected)
        windows = conv_windows(ifmap, (k_h, k_w), stride, padding)
        assert not windows.flags.writeable
        assert np.array_equal(windows.reshape(-1, expected.shape[0]), expected.T)

    def test_row_major_windows_overlap(self):
        row = np.arange(6, dtype=float)
        windows = im2col_row_major_windows(row, 3)
        assert windows.shape == (4, 3)
        np.testing.assert_allclose(windows[0], [0, 1, 2])
        np.testing.assert_allclose(windows[1], [1, 2, 3])
        # Consecutive windows share kernel_width - 1 elements.
        np.testing.assert_allclose(windows[0][1:], windows[1][:-1])

    def test_row_major_windows_rejects_short_rows(self):
        with pytest.raises(ValueError, match="shorter"):
            im2col_row_major_windows(np.zeros(2), 3)

    def test_col2im_validates_pixel_count(self):
        with pytest.raises(ValueError, match="pixels"):
            col2im_output(np.zeros((2, 10)), 3, 4)

    @given(
        channels=st.integers(1, 3),
        size=st.integers(3, 8),
        kernel=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_unique_elements_bound(self, channels, size, kernel, seed):
        """The im2col matrix never contains more unique values than the IFMAP."""
        local = np.random.default_rng(seed)
        ifmap = local.standard_normal((channels, size, size))
        lowered = im2col(ifmap, (kernel, kernel))
        assert len(np.unique(lowered)) <= ifmap.size


class TestConvLowering:
    def test_resnet_stem_matches_table3(self):
        """Table 3's Resnet50_0_conv2d row: M=64, K=147, N=62500."""
        stem = ConvShape(
            name="resnet_stem_500",
            in_channels=3,
            ifmap_h=500,
            ifmap_w=500,
            kernel_h=7,
            kernel_w=7,
            num_filters=64,
            stride=2,
            padding=3,
        )
        gemm = lower_conv_to_gemm(stem)
        assert (gemm.m, gemm.k) == (64, 147)
        assert gemm.n == stem.output_pixels

    def test_depthwise_lowering(self):
        layer = ConvShape(
            name="dw",
            in_channels=32,
            ifmap_h=10,
            ifmap_w=10,
            kernel_h=3,
            kernel_w=3,
            num_filters=32,
            padding=1,
            depthwise=True,
        )
        gemm = lower_conv_to_gemm(layer)
        assert (gemm.m, gemm.k, gemm.n) == (32, 9, 100)

    def test_macs_consistency(self):
        layer = _paper_example_layer()
        gemm = lower_conv_to_gemm(layer)
        assert gemm.macs == layer.macs

    def test_output_shape_properties(self):
        layer = _paper_example_layer()
        assert (layer.out_h, layer.out_w) == (4, 4)
        assert layer.output_pixels == 16
        assert layer.window_elements == 9

    def test_depthwise_requires_matching_filters(self):
        with pytest.raises(ValueError, match="depthwise"):
            ConvShape(
                name="bad",
                in_channels=8,
                ifmap_h=5,
                ifmap_w=5,
                kernel_h=3,
                kernel_w=3,
                num_filters=4,
                depthwise=True,
            )

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            ConvShape(
                name="bad",
                in_channels=0,
                ifmap_h=5,
                ifmap_w=5,
                kernel_h=3,
                kernel_w=3,
                num_filters=4,
            )


class TestReuseAnalysis:
    def test_window_overlap_matches_paper_counting(self):
        """Sec. 3.2: consecutive windows share n*(n-1) elements for stride 1."""
        assert window_overlap_elements(3, 3) == 6
        assert window_overlap_elements(5, 5) == 20
        assert window_overlap_elements(7, 7) == 42

    def test_window_overlap_shrinks_with_stride(self):
        assert window_overlap_elements(3, 3, stride=2) == 3
        assert window_overlap_elements(3, 3, stride=3) == 0

    def test_paper_fig7_single_row_repetition_is_50_percent(self):
        """Fig. 7: 18 of the 36 elements in one OFMAP row are repeats."""
        assert single_row_repetition_fraction(3, 6) == pytest.approx(0.5)

    def test_im2col_matrix_elements(self):
        layer = _paper_example_layer()
        assert im2col_matrix_elements(layer) == 16 * 9

    def test_unique_elements_with_and_without_padding(self):
        layer = ConvShape(
            name="padded",
            in_channels=2,
            ifmap_h=6,
            ifmap_w=6,
            kernel_h=3,
            kernel_w=3,
            num_filters=4,
            padding=1,
        )
        assert unique_ifmap_elements(layer) == 2 * 36
        assert unique_ifmap_elements(layer, include_padding=True) == 2 * 64

    def test_repetition_fraction_increases_with_kernel(self):
        small = ConvShape("k3", 16, 32, 32, 3, 3, 16, padding=1)
        large = ConvShape("k5", 16, 32, 32, 5, 5, 16, padding=2)
        assert repetition_fraction(large) > repetition_fraction(small) > 0.5

    def test_pointwise_conv_has_no_repetition(self):
        layer = ConvShape("pw", 64, 14, 14, 1, 1, 128)
        assert repetition_fraction(layer) == pytest.approx(0.0)

    def test_reused_elements_per_period(self):
        assert reused_elements_per_period(3) == (1, 2)
        assert reused_elements_per_period(7) == (1, 6)

    def test_empirical_repetition_matches_analysis(self, rng):
        """Count actual duplicates in the im2col matrix of the Fig. 7 layer."""
        layer = _paper_example_layer()
        ifmap = np.arange(layer.ifmap_elements, dtype=float).reshape(1, 6, 6)
        lowered = im2col(ifmap, (3, 3))
        unique = len(np.unique(lowered))
        measured_repetition = 1.0 - unique / lowered.size
        assert measured_repetition == pytest.approx(repetition_fraction(layer))


class TestTrafficModels:
    def test_onchip_never_exceeds_software(self):
        for layer in (
            _paper_example_layer(),
            ConvShape("resnet_3x3", 256, 14, 14, 3, 3, 256, padding=1),
            ConvShape("yolo_stem", 3, 416, 416, 3, 3, 32, padding=1),
        ):
            software = software_im2col_traffic(layer)
            onchip = onchip_im2col_traffic(layer)
            assert onchip.total_bytes <= software.total_bytes
            assert onchip.filter_bytes == software.filter_bytes
            assert onchip.ofmap_bytes == software.ofmap_bytes

    def test_ifmap_reduction_exceeds_60_percent_for_3x3(self):
        """Fig. 11: >60% memory-access reduction for SOTA conv shapes."""
        layer = ConvShape("sota_3x3", 128, 28, 28, 3, 3, 128, padding=1)
        assert traffic_reduction(layer, ifmap_only=True) > 0.6

    def test_pointwise_conv_sees_no_reduction(self):
        layer = ConvShape("pw", 64, 14, 14, 1, 1, 128)
        assert traffic_reduction(layer, ifmap_only=True) == pytest.approx(0.0)

    def test_filter_passes_multiply_ifmap_traffic(self):
        layer = ConvShape("many_filters", 64, 14, 14, 3, 3, 512, padding=1)
        one_pass = software_im2col_traffic(layer, array_rows=None)
        four_passes = software_im2col_traffic(layer, array_rows=128)
        assert four_passes.ifmap_bytes == pytest.approx(4 * one_pass.ifmap_bytes)

    def test_bytes_per_element_scales_linearly(self):
        layer = _paper_example_layer()
        fp16 = software_im2col_traffic(layer, bytes_per_element=2.0)
        fp32 = software_im2col_traffic(layer, bytes_per_element=4.0)
        assert fp32.total_bytes == pytest.approx(2 * fp16.total_bytes)

    def test_network_traffic_sums_layers(self):
        layers = [_paper_example_layer(), ConvShape("second", 4, 8, 8, 3, 3, 8, padding=1)]
        total = network_traffic(layers, onchip=False)
        per_layer = [software_im2col_traffic(layer) for layer in layers]
        assert total.total_bytes == pytest.approx(sum(r.total_bytes for r in per_layer))

    def test_traffic_report_combining(self):
        layer = _paper_example_layer()
        report = software_im2col_traffic(layer)
        doubled = report.combined(report, "both")
        assert doubled.total_bytes == pytest.approx(2 * report.total_bytes)
        assert doubled.total_mb == pytest.approx(doubled.total_bytes / 1e6)

    def test_rejects_bad_bytes_per_element(self):
        with pytest.raises(ValueError):
            software_im2col_traffic(_paper_example_layer(), bytes_per_element=0)

    @given(
        channels=st.integers(1, 64),
        size=st.integers(6, 64),
        kernel=st.sampled_from([3, 5, 7]),
        filters=st.integers(1, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_onchip_ifmap_traffic_equals_unique_elements(
        self, channels, size, kernel, filters
    ):
        layer = ConvShape("prop", channels, size, size, kernel, kernel, filters, padding=kernel // 2)
        onchip = onchip_im2col_traffic(layer, bytes_per_element=1.0)
        assert onchip.ifmap_bytes == pytest.approx(layer.ifmap_elements)
