"""Tests for the TorchONN-lite layers: forward correctness and GEMM extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.onn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GELU,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadAttention,
    ReLU,
    Sequential,
)


class TestLinear:
    def test_forward_matches_numpy(self):
        layer = Linear(4, 3, name="fc")
        x = np.arange(4.0)
        expected = layer.weight @ x + layer.bias
        np.testing.assert_allclose(layer(x), expected)

    def test_batched_forward(self):
        layer = Linear(4, 3)
        x = np.ones((5, 4))
        assert layer(x).shape == (5, 3)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Linear(4, 3)(np.ones(5))

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False)
        assert layer.bias is None
        assert layer(np.zeros(4)) == pytest.approx(np.zeros(3))

    def test_extract_gemm_shape(self):
        layer = Linear(8, 6, name="fc")
        gemms, out = layer.extract_gemms(np.ones((10, 8)))
        assert len(gemms) == 1
        gemm = gemms[0]
        assert (gemm.m, gemm.k, gemm.n) == (10, 8, 6)
        assert gemm.weight_values.shape == (8, 6)
        assert gemm.input_values.shape == (10, 8)
        assert out.shape == (10, 6)

    def test_gemm_consistent_with_forward(self):
        layer = Linear(5, 4, name="fc")
        x = np.random.default_rng(0).normal(size=(3, 5))
        gemms, out = layer.extract_gemms(x)
        gemm = gemms[0]
        manual = gemm.input_values @ gemm.weight_values + layer.bias
        np.testing.assert_allclose(manual, out)

    def test_pruning_mask_applied(self):
        layer = Linear(4, 4, name="fc")
        layer.pruning_mask = np.zeros_like(layer.weight, dtype=bool)
        np.testing.assert_allclose(layer(np.ones(4)), layer.bias)

    def test_num_parameters(self):
        assert Linear(4, 3).num_parameters() == 4 * 3 + 3
        assert Linear(4, 3, bias=False).num_parameters() == 12

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(3, 8, 3, padding=1, name="conv")
        out = conv(np.random.default_rng(0).normal(size=(3, 16, 16)))
        assert out.shape == (8, 16, 16)

    def test_stride_and_padding(self):
        conv = Conv2d(1, 1, 3, stride=2, padding=1)
        out = conv(np.ones((1, 8, 8)))
        assert out.shape == (1, 4, 4)

    def test_identity_kernel(self):
        conv = Conv2d(1, 1, 1, bias=False, name="id")
        conv.weight = np.ones((1, 1, 1, 1))
        x = np.random.default_rng(1).normal(size=(1, 5, 5))
        np.testing.assert_allclose(conv(x), x)

    def test_matches_explicit_convolution(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(2, 3, 3, padding=0, bias=False, name="conv")
        x = rng.normal(size=(2, 6, 6))
        out = conv(x)
        # Explicit loop-based reference for one output position.
        ref = sum(
            (x[c, 1:4, 2:5] * conv.weight[1, c]).sum() for c in range(2)
        )
        assert out[1, 1, 2] == pytest.approx(ref)

    def test_too_small_input_raises(self):
        conv = Conv2d(1, 1, 5)
        with pytest.raises(ValueError):
            conv(np.ones((1, 3, 3)))

    def test_wrong_channels_raises(self):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3)(np.ones((1, 8, 8)))

    def test_extract_gemm_im2col_dims(self):
        conv = Conv2d(3, 8, 3, padding=1, name="conv")
        gemms, out = conv.extract_gemms(np.ones((3, 10, 10)))
        gemm = gemms[0]
        assert gemm.m == 100          # output pixels
        assert gemm.k == 3 * 3 * 3    # im2col patch
        assert gemm.n == 8            # output channels
        assert gemm.layer_type == "conv"
        assert out.shape == (8, 10, 10)

    def test_extract_output_bit_identical_to_forward(self, monkeypatch):
        rng = np.random.default_rng(4)
        conv = Conv2d(3, 5, 3, stride=2, padding=1, name="conv", rng=rng)
        conv.bias = rng.normal(size=5)
        x = rng.normal(size=(3, 11, 9))
        expected = conv.forward(x)
        im2col = conv._im2col
        calls = []
        monkeypatch.setattr(conv, "_im2col", lambda a: calls.append(a.shape) or im2col(a))
        gemms, out = conv.extract_gemms(x)
        # One im2col: the output comes from the patch matrix the record holds.
        assert calls == [x.shape]
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert gemms[0].input_values.shape == (6 * 5, 3 * 3 * 3)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, 0)
        with pytest.raises(ValueError):
            Conv2d(1, 1, 3, stride=0)


class TestAttention:
    def test_forward_shape(self):
        attn = MultiHeadAttention(16, 4, name="attn")
        x = np.random.default_rng(0).normal(size=(6, 16))
        assert attn(x).shape == (6, 16)

    def test_requires_divisible_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_input_shape_check(self):
        attn = MultiHeadAttention(16, 4)
        with pytest.raises(ValueError):
            attn(np.ones((6, 8)))

    def test_extract_gemm_count(self):
        heads = 4
        attn = MultiHeadAttention(16, heads, name="attn")
        gemms, _ = attn.extract_gemms(np.random.default_rng(0).normal(size=(6, 16)))
        # 3 projections + out projection + QK^T and AV per head
        assert len(gemms) == 4 + 2 * heads

    def test_dynamic_gemms_not_weight_static(self):
        attn = MultiHeadAttention(16, 2, name="attn")
        gemms, _ = attn.extract_gemms(np.random.default_rng(0).normal(size=(5, 16)))
        dynamic = [g for g in gemms if g.layer_type == "attention"]
        assert dynamic and all(not g.weight_static for g in dynamic)
        projections = [g for g in gemms if g.layer_type == "linear"]
        assert projections and all(g.weight_static for g in projections)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(1).normal(size=(4, 7))
        soft = MultiHeadAttention._softmax(x)
        np.testing.assert_allclose(soft.sum(axis=-1), np.ones(4))


class TestActivationsAndPooling:
    def test_relu(self):
        np.testing.assert_allclose(ReLU()(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_gelu_sign_and_magnitude(self):
        gelu = GELU()
        assert gelu(np.array([5.0]))[0] == pytest.approx(5.0, abs=1e-2)
        assert abs(gelu(np.array([-5.0]))[0]) < 1e-2

    def test_flatten(self):
        assert Flatten()(np.ones((2, 3, 4))).shape == (24,)

    def test_maxpool(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        out = MaxPool2d(2)(x)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == 5.0

    def test_avgpool(self):
        x = np.ones((2, 4, 4))
        np.testing.assert_allclose(AvgPool2d(2)(x), np.ones((2, 2, 2)))

    def test_batchnorm_affine(self):
        bn = BatchNorm2d(2)
        bn.scale = np.array([2.0, 1.0])
        bn.shift = np.array([0.0, 1.0])
        x = np.ones((2, 2, 2))
        out = bn(x)
        assert out[0].max() == 2.0
        assert out[1].min() == 2.0

    def test_batchnorm_channel_check(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(np.ones((2, 4, 4)))

    def test_layernorm_normalizes(self):
        ln = LayerNorm(8)
        x = np.random.default_rng(0).normal(2.0, 3.0, size=(5, 8))
        out = ln(x)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)


class TestSequential:
    def test_forward_composition(self):
        model = Sequential(Linear(4, 8, name="a"), ReLU(), Linear(8, 2, name="b"))
        assert model(np.ones(4)).shape == (2,)

    def test_extract_gemms_from_all_layers(self):
        model = Sequential(Linear(4, 8, name="a"), ReLU(), Linear(8, 2, name="b"))
        gemms, out = model.extract_gemms(np.ones(4))
        assert [g.name for g in gemms] == ["a", "b"]
        assert out.shape == (2,)

    def test_len_and_getitem(self):
        model = Sequential(Linear(4, 4, name="a"), ReLU())
        assert len(model) == 2
        assert model[0].name == "a"

    def test_rejects_non_modules(self):
        with pytest.raises(TypeError):
            Sequential(Linear(2, 2), "not a layer")

    def test_modules_iterates_children(self):
        model = Sequential(Linear(4, 4, name="a"), Sequential(Linear(4, 4, name="b")))
        names = [m.name for m in model.modules() if isinstance(m, Linear)]
        assert names == ["a", "b"]

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    def test_gemm_macs_match_dimensions(self, m, k, n):
        layer = Linear(k, n, name="fc")
        gemms, _ = layer.extract_gemms(np.ones((m, k)))
        assert gemms[0].num_macs == m * k * n
