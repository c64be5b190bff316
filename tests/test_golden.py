"""Tests for the golden numpy reference models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.golden import (
    batched_gemm,
    conv2d,
    conv_output_shape,
    depthwise_conv2d,
    gemm,
    gemv,
)
from repro.im2col import col2im_output
from repro.im2col.lowering import lower_conv_operands


def _conv_via_im2col(ifmap, filters, stride=1, padding=0):
    """The lowered GEMM folded back into the OFMAP, as ``run_conv`` does."""
    a, b, layer = lower_conv_operands(ifmap, filters, stride, padding)
    return col2im_output(a @ b, layer.out_h, layer.out_w)


class TestGemm:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 9))
        np.testing.assert_allclose(gemm(a, b), a @ b)

    def test_identity(self):
        a = np.arange(12, dtype=float).reshape(3, 4)
        np.testing.assert_allclose(gemm(a, np.eye(4)), a)

    def test_rejects_mismatched_inner_dims(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            gemm(np.zeros((3, 4)), np.zeros((5, 6)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            gemm(np.zeros(3), np.zeros((3, 3)))

    def test_result_dtype_is_float64(self):
        result = gemm(np.ones((2, 2), dtype=np.float16), np.ones((2, 2), dtype=np.float16))
        assert result.dtype == np.float64

    @given(
        m=st.integers(1, 8),
        k=st.integers(1, 8),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_numpy(self, m, k, n, seed):
        local = np.random.default_rng(seed)
        a = local.standard_normal((m, k))
        b = local.standard_normal((k, n))
        np.testing.assert_allclose(gemm(a, b), a @ b)


class TestGemv:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((6, 4))
        x = rng.standard_normal(4)
        np.testing.assert_allclose(gemv(a, x), a @ x)

    def test_rejects_matrix_second_operand(self):
        with pytest.raises(ValueError, match="vector"):
            gemv(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            gemv(np.zeros((3, 4)), np.zeros(5))


class TestBatchedGemm:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 5, 6))
        np.testing.assert_allclose(batched_gemm(a, b), a @ b)

    def test_rejects_batch_mismatch(self):
        with pytest.raises(ValueError, match="batch"):
            batched_gemm(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))

    def test_rejects_2d_operands(self):
        with pytest.raises(ValueError, match="3-D"):
            batched_gemm(np.zeros((3, 4)), np.zeros((4, 5)))


class TestConvOutputShape:
    def test_basic(self):
        assert conv_output_shape(6, 3) == 4

    def test_stride(self):
        assert conv_output_shape(224, 7, stride=2, padding=3) == 112

    def test_padding(self):
        assert conv_output_shape(8, 3, stride=1, padding=1) == 8

    def test_rejects_empty_output(self):
        with pytest.raises(ValueError, match="empty output"):
            conv_output_shape(2, 5)

    def test_rejects_bad_kernel(self):
        with pytest.raises(ValueError):
            conv_output_shape(6, 0)

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError):
            conv_output_shape(6, 3, padding=-1)


class TestConv2d:
    def test_single_channel_known_result(self):
        ifmap = np.arange(16, dtype=float).reshape(1, 4, 4)
        filters = np.ones((1, 1, 2, 2))
        expected = np.array(
            [
                [0 + 1 + 4 + 5, 1 + 2 + 5 + 6, 2 + 3 + 6 + 7],
                [4 + 5 + 8 + 9, 5 + 6 + 9 + 10, 6 + 7 + 10 + 11],
                [8 + 9 + 12 + 13, 9 + 10 + 13 + 14, 10 + 11 + 14 + 15],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(conv2d(ifmap, filters)[0], expected)

    def test_stride_two(self, rng):
        ifmap = rng.standard_normal((3, 8, 8))
        filters = rng.standard_normal((5, 3, 3, 3))
        out = conv2d(ifmap, filters, stride=2)
        assert out.shape == (5, 3, 3)

    def test_padding_preserves_spatial_size(self, rng):
        ifmap = rng.standard_normal((2, 6, 6))
        filters = rng.standard_normal((4, 2, 3, 3))
        out = conv2d(ifmap, filters, padding=1)
        assert out.shape == (4, 6, 6)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(np.zeros((2, 5, 5)), np.zeros((1, 3, 3, 3)))

    def test_matches_im2col_path(self, rng):
        ifmap = rng.standard_normal((3, 7, 7))
        filters = rng.standard_normal((4, 3, 3, 3))
        direct = conv2d(ifmap, filters, stride=1, padding=1)
        lowered = _conv_via_im2col(ifmap, filters, stride=1, padding=1)
        np.testing.assert_allclose(direct, lowered)

    @given(
        channels=st.integers(1, 3),
        size=st.integers(4, 8),
        kernel=st.integers(1, 3),
        filters=st.integers(1, 4),
        stride=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_im2col_equals_direct(self, channels, size, kernel, filters, stride, seed):
        local = np.random.default_rng(seed)
        ifmap = local.standard_normal((channels, size, size))
        weight = local.standard_normal((filters, channels, kernel, kernel))
        direct = conv2d(ifmap, weight, stride=stride)
        lowered = _conv_via_im2col(ifmap, weight, stride=stride)
        np.testing.assert_allclose(direct, lowered, atol=1e-9)


class TestDepthwiseConv2d:
    def test_each_channel_independent(self, rng):
        ifmap = rng.standard_normal((3, 6, 6))
        filters = rng.standard_normal((3, 3, 3))
        out = depthwise_conv2d(ifmap, filters)
        for channel in range(3):
            single = conv2d(ifmap[channel : channel + 1], filters[channel][None, None, :, :])
            np.testing.assert_allclose(out[channel], single[0])

    def test_output_shape(self, rng):
        ifmap = rng.standard_normal((4, 10, 10))
        filters = rng.standard_normal((4, 3, 3))
        assert depthwise_conv2d(ifmap, filters, stride=2, padding=1).shape == (4, 5, 5)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError, match="one filter per channel"):
            depthwise_conv2d(np.zeros((3, 5, 5)), np.zeros((2, 3, 3)))
