"""Tests for the evaluation models, conversion, quantization, pruning and workload extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.onn import (
    ONNConversionConfig,
    apply_pruning,
    convert_to_onn,
    extract_workloads,
    magnitude_prune_mask,
    quantization_error,
    quantize_uniform,
)
from oracles import (
    attention_batch_reference,
    gelu_expression_reference,
    gelu_reference,
    layer_norm_reference,
    quantize_uniform_reference,
    quantize_with_scale_reference,
    softmax_reference,
)
from repro.onn.convert import ptc_assignment_of
from repro.onn.layers import (
    GELU,
    Conv2d,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    compute_dtype,
    pinned_modes,
)
from repro.onn.models import build_bert_base_image, build_mlp, build_vgg8_cifar10
from repro.onn.models.transformer import TransformerEncoder
from repro.onn.prune import sparsity
from repro.onn.quantize import peak_abs, quantize_with_scale
from repro.onn.workload import max_layer_bytes, total_macs
from repro.utils.blocks import BLOCK, flat_view, fresh_like


class TestQuantization:
    def test_quantized_values_on_grid(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=100)
        quantized = quantize_uniform(values, bits=4)
        peak = np.max(np.abs(values))
        scale = peak / 7
        codes = quantized / scale
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)

    def test_higher_bits_lower_error(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=500)
        assert quantization_error(values, 8) < quantization_error(values, 3)

    def test_error_zero_for_high_precision(self):
        values = np.array([0.5, -0.25, 0.125])
        assert quantization_error(values, 16) < 1e-4

    def test_zero_input(self):
        np.testing.assert_allclose(quantize_uniform(np.zeros(5), 8), np.zeros(5))

    def test_asymmetric_mode(self):
        values = np.array([0.0, 1.0, 2.0])
        quantized = quantize_uniform(values, 2, symmetric=False)
        assert quantized.min() >= 0.0
        assert quantized.max() <= 2.0

    def test_empty_array(self):
        assert quantize_uniform(np.array([]), 8).size == 0

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.ones(3), 0)

    def test_quantize_with_scale_roundtrip(self):
        values = np.array([0.5, -1.0, 0.25])
        codes, scale = quantize_with_scale(values, 8)
        np.testing.assert_allclose(codes * scale, values, atol=scale)

    @given(st.integers(min_value=2, max_value=10))
    def test_error_bounded_by_half_lsb(self, bits):
        rng = np.random.default_rng(42)
        values = rng.uniform(-1, 1, size=200)
        quantized = quantize_uniform(values, bits)
        lsb = np.max(np.abs(values)) / (2 ** (bits - 1) - 1)
        assert np.max(np.abs(values - quantized)) <= lsb / 2 + 1e-12


def _same_bits(a, b):
    """Equal shape, dtype and bytes, so -0.0 against 0.0 counts as a difference."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


#: Flat element counts around the kernels' block boundaries.
BLOCK_SIZES = (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)

#: An n-D shape for every size in :data:`BLOCK_SIZES`, for n = 1..4.
_BLOCK_SHAPES = {
    BLOCK - 1: ((BLOCK - 1,), (151, 217), (7, 31, 151), (1, 7, 31, 151)),
    BLOCK: ((BLOCK,), (128, 256), (32, 32, 32), (8, 8, 16, 32)),
    BLOCK + 1: ((BLOCK + 1,), (99, 331), (9, 11, 331), (3, 3, 11, 331)),
    3 * BLOCK + 7: ((3 * BLOCK + 7,), (17, 5783), (1, 17, 5783), (1, 1, 17, 5783)),
}

_SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)

LAYOUTS = ("C", "F", "transposed", "strided", "broadcast")


def _laid_out(values, layout):
    """``values`` (C order) copied into a C, F, transposed or strided layout.

    ``broadcast`` is not a copy: it repeats the first row along every leading
    axis through zero strides (a read-only view).
    """
    if layout == "C":
        return values.copy()
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "transposed":
        # Last axis first in memory: the plain transpose in 2-D, a permuted
        # (neither C nor F) layout in 3-D and 4-D.
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(values, -1, 0)), 0, -1)
    if layout == "broadcast":
        return np.broadcast_to(values.reshape(-1)[: values.shape[-1]], values.shape)
    wide = np.zeros(values.shape[:-1] + (2 * values.shape[-1],))
    wide[..., ::2] = values
    return wide[..., ::2]


def _kernel_input(size, ndim, layout, seed=11):
    """A ``size``-element n-D array with signed zeros, infinities and NaN
    placed across the first block boundaries."""
    shape = _BLOCK_SHAPES[size][ndim - 1]
    values = np.random.default_rng(seed).normal(scale=3.0, size=shape)
    flat = values.reshape(-1)
    for i, pos in enumerate((0, 1, 2, 3, 4, BLOCK - 2, BLOCK - 1, BLOCK, size - 1)):
        if pos < size:
            flat[pos] = _SPECIALS[i % len(_SPECIALS)]
    return _laid_out(values, layout)


def _large_quantize_input():
    values = np.random.default_rng(5).normal(size=(257, 383))
    flat = values.reshape(-1)
    flat[BLOCK - 1 : BLOCK + 2] = -0.0
    flat[2 * BLOCK] = 0.0
    return values


def _quantize_inputs():
    base = np.random.default_rng(3).normal(size=(12, 7))
    signed_zeros = base.copy()
    signed_zeros[::3, ::2] = -0.0
    large = _large_quantize_input()
    return {
        "normal": base,
        "all_negative": -np.abs(base) - 0.1,
        "all_zero": np.zeros((4, 5)),
        "negative_zero": np.full((3, 3), -0.0),
        "signed_zeros": signed_zeros,
        "f_ordered": np.asfortranarray(base),
        "transposed": base.T,
        "strided": base[::2, 1::3],
        "constant": np.full((2, 3), 0.5),
        "ints": np.arange(-5, 7).reshape(3, 4),
        # Odd multiples of half the 8-bit step (0.765625): v / scale lands
        # exactly on .5 ties, where v * (1 / scale) rounds 80 of them the
        # other way.
        "half_steps": np.append(
            (np.arange(-127, 127) + 0.5) * 0.765625, [97.234375, -97.234375]
        ),
        # Larger than one block, so the blocked kernels reach a second block.
        "large": large,
        "large_f_ordered": np.asfortranarray(large),
        "large_strided": _laid_out(large, "strided"),
    }


QUANTIZE_INPUTS = _quantize_inputs()


class TestAllocationLightKernels:
    """Blocked and in-place kernels against the whole-array formulas they replaced."""

    @pytest.mark.parametrize("case", sorted(QUANTIZE_INPUTS))
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_quantize_uniform_bit_identical(self, case, symmetric, bits):
        values = QUANTIZE_INPUTS[case]
        assert _same_bits(
            quantize_uniform(values, bits, symmetric=symmetric),
            quantize_uniform_reference(values, bits, symmetric=symmetric),
        )

    @pytest.mark.parametrize("case", sorted(QUANTIZE_INPUTS))
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_quantize_with_scale_bit_identical(self, case, bits):
        values = QUANTIZE_INPUTS[case]
        codes, scale = quantize_with_scale(values, bits)
        ref_codes, ref_scale = quantize_with_scale_reference(values, bits)
        assert _same_bits(codes, ref_codes)
        assert _same_bits(scale, ref_scale)

    @pytest.mark.parametrize("case", sorted(QUANTIZE_INPUTS) + ["empty"])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_quantize_uniform_returns_a_fresh_array(self, case, symmetric):
        values = QUANTIZE_INPUTS.get(case, np.array([]))
        out = quantize_uniform(values, 4, symmetric=symmetric)
        assert out is not values
        assert not np.shares_memory(out, values)

    @pytest.mark.parametrize("case", sorted(QUANTIZE_INPUTS))
    def test_peak_abs_matches_max_of_abs(self, case):
        values = np.asarray(QUANTIZE_INPUTS[case], dtype=float)
        assert _same_bits(peak_abs(values), float(np.max(np.abs(values))))

    def test_peak_abs_nan_propagates(self):
        assert np.isnan(peak_abs(np.array([1.0, np.nan, -2.0])))

    @pytest.mark.parametrize("values, expected", [
        # -min() would wrap to 253 in uint8.
        (np.array([3, 5], dtype=np.uint8), 5.0),
        # -min() (and abs()) overflow at INT_MIN.
        (np.array([-128, 1], dtype=np.int8), 128.0),
        (np.array([np.iinfo(np.int64).min, 0]), 2.0**63),
        (np.array([True, False]), 1.0),
    ])
    def test_peak_abs_non_float_dtypes(self, values, expected):
        assert peak_abs(values) == expected

    def test_gelu_matches_the_pow_cube(self):
        x = np.random.default_rng(4).normal(scale=3.0, size=(197, 64))
        np.testing.assert_allclose(
            GELU().forward(x), gelu_reference(x), rtol=0.0, atol=1e-15
        )

    @staticmethod
    def _layer_norm(x):
        dim = x.shape[-1]
        rng = np.random.default_rng(dim)
        norm = LayerNorm(dim, eps=1e-3)
        norm.scale = rng.normal(size=dim)
        norm.shift = rng.normal(size=dim)
        return norm.forward(x), layer_norm_reference(x, norm.scale, norm.shift, norm.eps)

    @staticmethod
    def _run(kernel, x):
        if kernel == "gelu":
            return GELU().forward(x), gelu_expression_reference(x)
        if kernel == "softmax":
            return MultiHeadAttention._softmax(x), softmax_reference(x)
        return TestAllocationLightKernels._layer_norm(x)

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kernel", ["gelu", "softmax", "layer_norm"])
    def test_kernel_bit_identical(self, kernel, layout, ndim, size):
        x = _kernel_input(size, ndim, layout)
        before = x.copy()
        with np.errstate(all="ignore"):
            out, expected = self._run(kernel, x)
        assert _same_bits(out, expected)
        assert _same_bits(x, before)
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_flat_view_copies_only_a_non_contiguous_input(self, layout):
        x = _kernel_input(BLOCK + 1, 2, layout)
        assert np.shares_memory(flat_view(x), x) == (layout in ("C", "F", "transposed"))
        src, out, dst = fresh_like(x)
        assert np.shares_memory(dst, out) and not np.shares_memory(dst, x)
        assert src.shape == dst.shape == (x.size,)

    def test_float32_kernels_stay_float32(self):
        rng = np.random.default_rng(8)
        attn = MultiHeadAttention(96, 4, name="attn", rng=rng)
        norm = LayerNorm(96)
        norm.scale = rng.normal(size=96)
        norm.shift = rng.normal(size=96)
        with pinned_modes("float32"):
            x = rng.normal(scale=2.0, size=(3, 17, 96)).astype(compute_dtype())
            results = {
                "gelu": (GELU().forward_batch(x), gelu_expression_reference(x)),
                "layer_norm": (
                    norm.forward_batch(x),
                    layer_norm_reference(
                        x, norm.scale.astype(np.float32), norm.shift.astype(np.float32), norm.eps
                    ),
                ),
                "attention": (attn.forward_batch(x), attention_batch_reference(attn, x)),
            }
        for name, (out, expected) in results.items():
            assert out.dtype == np.float32, name
            assert _same_bits(out, expected), name


class TestPruning:
    def test_prune_ratio_respected(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(20, 20))
        mask = magnitude_prune_mask(weights, 0.5)
        assert mask.mean() == pytest.approx(0.5, abs=0.05)

    def test_keeps_largest_magnitudes(self):
        weights = np.array([0.01, 5.0, -4.0, 0.02])
        mask = magnitude_prune_mask(weights, 0.5)
        assert mask[1] and mask[2]
        assert not mask[0] and not mask[3]

    def test_zero_and_full_ratio(self):
        weights = np.ones((3, 3))
        assert magnitude_prune_mask(weights, 0.0).all()
        assert not magnitude_prune_mask(weights, 1.0).any()

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            magnitude_prune_mask(np.ones(4), 1.5)

    def test_apply_pruning_to_layer(self):
        layer = Linear(10, 10, name="fc")
        mask = apply_pruning(layer, 0.3)
        assert layer.pruning_mask is mask
        assert sparsity(mask) == pytest.approx(0.3, abs=0.05)

    def test_apply_pruning_requires_weights(self):
        with pytest.raises(TypeError):
            apply_pruning(object(), 0.5)

    def test_sparsity_of_weights(self):
        assert sparsity(np.array([0.0, 1.0, 0.0, 2.0])) == pytest.approx(0.5)
        assert sparsity(np.array([])) == 0.0


class TestConversion:
    def test_sets_bits_and_ptc(self):
        model = build_mlp((16, 8, 4))
        convert_to_onn(model, ONNConversionConfig(weight_bits=6, default_ptc="tempo"))
        fc1 = model[0]
        assert fc1.weight_bits == 6
        assert fc1.ptc_type == "tempo"

    def test_type_rules_route_layers(self):
        model = build_vgg8_cifar10(width_multiplier=0.05, input_size=16)
        config = ONNConversionConfig(
            ptc_assignment={"conv": "scatter", "linear": "mzi_mesh"}
        )
        convert_to_onn(model, config)
        assignment = ptc_assignment_of(model)
        assert assignment["conv1"] == "scatter"
        assert assignment["fc1"] == "mzi_mesh"

    def test_pruning_applied_during_conversion(self):
        model = build_mlp((32, 16, 8))
        convert_to_onn(model, ONNConversionConfig(prune_ratio=0.5))
        assert model[0].pruning_mask is not None
        assert sparsity(model[0].pruning_mask) > 0.3

    def test_quantization_applied(self):
        model = build_mlp((16, 8))
        original = model[0].weight.copy()
        convert_to_onn(model, ONNConversionConfig(weight_bits=2))
        assert not np.allclose(model[0].weight, original)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ONNConversionConfig(weight_bits=0)
        with pytest.raises(ValueError):
            ONNConversionConfig(prune_ratio=1.0)

    def test_attention_projections_tagged_attention(self):
        model = build_bert_base_image(image_size=32, num_layers=1, num_classes=10)
        config = ONNConversionConfig(
            ptc_assignment={"attention": "lightening_transformer", "linear": "mzi_mesh"}
        )
        convert_to_onn(model, config)
        assignment = ptc_assignment_of(model)
        assert assignment[model.blocks[0].attention.w_q.name] == "lightening_transformer"
        assert assignment[model.head.name] == "mzi_mesh"


class TestModels:
    def test_mlp_forward(self):
        model = build_mlp((12, 6, 3))
        assert model(np.ones(12)).shape == (3,)

    def test_mlp_needs_two_sizes(self):
        with pytest.raises(ValueError):
            build_mlp((4,))

    def test_vgg8_has_eight_weight_layers(self):
        model = build_vgg8_cifar10(width_multiplier=0.1)
        weighted = [m for m in model.modules() if isinstance(m, (Conv2d, Linear))]
        assert len(weighted) == 8

    def test_vgg8_forward_shape(self):
        model = build_vgg8_cifar10(width_multiplier=0.1)
        logits = model(np.random.default_rng(0).normal(size=(3, 32, 32)))
        assert logits.shape == (10,)

    def test_vgg8_input_size_check(self):
        with pytest.raises(ValueError):
            build_vgg8_cifar10(input_size=30)

    def test_transformer_token_count(self):
        model = TransformerEncoder(image_size=32, patch_size=16, num_layers=1,
                                   embed_dim=32, num_heads=4, mlp_dim=64, num_classes=5)
        assert model.num_tokens == (32 // 16) ** 2 + 1

    def test_transformer_forward(self):
        model = TransformerEncoder(image_size=32, patch_size=16, num_layers=2,
                                   embed_dim=32, num_heads=4, mlp_dim=64, num_classes=5)
        logits = model(np.random.default_rng(0).normal(size=(3, 32, 32)))
        assert logits.shape == (5,)

    def test_transformer_patchify_shape_check(self):
        model = TransformerEncoder(image_size=32, patch_size=16, num_layers=1,
                                   embed_dim=16, num_heads=2, mlp_dim=32)
        with pytest.raises(ValueError):
            model.patchify(np.ones((3, 16, 16)))

    def test_bert_base_parameter_count_scale(self):
        model = build_bert_base_image(image_size=32, num_layers=1, num_classes=10)
        # One BERT-Base block is ~7M parameters (attention 4*768^2 + MLP 2*768*3072).
        assert 6e6 < model.blocks[0].num_parameters() < 8.5e6


class TestWorkloadExtraction:
    def test_mlp_workloads(self):
        model = build_mlp((16, 8, 4))
        workloads = extract_workloads(model, np.ones(16))
        assert [w.layer_name for w in workloads] == ["fc1", "fc2"]
        assert total_macs(workloads) == 16 * 8 + 8 * 4

    def test_vgg8_workload_count_and_types(self):
        model = build_vgg8_cifar10(width_multiplier=0.05, input_size=16)
        workloads = extract_workloads(model, np.random.default_rng(0).normal(size=(3, 16, 16)))
        assert len(workloads) == 8
        assert sum(w.layer_type == "conv" for w in workloads) == 6
        assert sum(w.layer_type == "linear" for w in workloads) == 2

    def test_ptc_assignment_propagates(self):
        model = build_vgg8_cifar10(width_multiplier=0.05, input_size=16)
        convert_to_onn(model, ONNConversionConfig(
            ptc_assignment={"conv": "scatter", "linear": "mzi_mesh"}))
        workloads = extract_workloads(model, np.zeros((3, 16, 16)))
        conv_ptcs = {w.ptc_type for w in workloads if w.layer_type == "conv"}
        linear_ptcs = {w.ptc_type for w in workloads if w.layer_type == "linear"}
        assert conv_ptcs == {"scatter"}
        assert linear_ptcs == {"mzi_mesh"}

    def test_attention_workloads_tagged(self):
        model = TransformerEncoder(image_size=32, patch_size=16, num_layers=1,
                                   embed_dim=32, num_heads=2, mlp_dim=64, num_classes=4)
        convert_to_onn(model, ONNConversionConfig(
            ptc_assignment={"attention": "tempo", "linear": "mzi_mesh"}))
        workloads = extract_workloads(model, np.zeros((3, 32, 32)))
        dynamic = [w for w in workloads if w.layer_type == "attention"]
        assert dynamic
        assert all(w.ptc_type == "tempo" for w in dynamic)

    def test_max_layer_bytes(self):
        model = build_mlp((64, 32, 8))
        workloads = extract_workloads(model, np.ones(64))
        assert max_layer_bytes(workloads) == max(w.gemm.total_bytes for w in workloads)
        assert max_layer_bytes([]) == 0.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=2, max_value=16))
    def test_total_macs_matches_manual_count(self, hidden, out):
        model = build_mlp((8, hidden, out))
        workloads = extract_workloads(model, np.ones(8))
        assert total_macs(workloads) == 8 * hidden + hidden * out


def _weighted_layers(model):
    return {m.name: m for m in model.modules() if isinstance(m, (Conv2d, Linear))}


def _small_bert():
    return build_bert_base_image(image_size=32, num_layers=1, num_classes=10)


def _small_vgg():
    return build_vgg8_cifar10(width_multiplier=0.05, input_size=16)


class TestZeroCopyExtraction:
    """Workload records are read-only views of model state, not copies."""

    @pytest.mark.parametrize("build, shape", [(_small_bert, (3, 32, 32)),
                                              (_small_vgg, (3, 16, 16))])
    def test_static_weights_are_read_only_views(self, build, shape):
        model = build()
        workloads = extract_workloads(model, np.random.default_rng(0).normal(size=shape))
        layers = _weighted_layers(model)
        static = [w.gemm for w in workloads if w.gemm.weight_static]
        assert len(static) == len(layers)
        for gemm in static:
            assert np.shares_memory(gemm.weight_values, layers[gemm.name].weight)
        for w in workloads:
            for operand in (w.gemm.weight_values, w.gemm.input_values):
                with pytest.raises(ValueError):
                    operand[0, 0] = 1.0

    def test_records_do_not_alias_the_caller_input(self):
        model = build_mlp((16, 8, 4))
        image = np.ones(16)
        workloads = extract_workloads(model, image)
        assert not np.shares_memory(workloads[0].gemm.input_values, image)

    def test_one_projection_pass_per_encoder_block(self, monkeypatch):
        calls = []
        forward = Linear.forward

        def counting(self, x):
            calls.append(self.name)
            return forward(self, x)

        monkeypatch.setattr(Linear, "forward", counting)
        model = _small_bert()
        extract_workloads(model, np.zeros((3, 32, 32)))
        block = model.blocks[0].name + "."
        # q, k, v, out projections plus the two MLP layers: once each.
        assert sum(name.startswith(block) for name in calls) == 6

    def test_requantization_leaves_extracted_workloads_unchanged(self):
        model = _small_bert()
        convert_to_onn(model, ONNConversionConfig(weight_bits=8))
        workloads = extract_workloads(model, np.random.default_rng(1).normal(size=(3, 32, 32)))
        before = [(w.gemm.weight_values.copy(), w.gemm.input_values.copy()) for w in workloads]
        weights = {name: layer.weight for name, layer in _weighted_layers(model).items()}
        convert_to_onn(model, ONNConversionConfig(weight_bits=3))
        # Re-conversion re-quantizes (rebinds) at least the attention projections.
        requantized = [name for name, layer in _weighted_layers(model).items()
                       if not np.array_equal(layer.weight, weights[name])]
        assert model.blocks[0].attention.w_q.name in requantized
        for w, (weight, inputs) in zip(workloads, before):
            assert np.array_equal(w.gemm.weight_values, weight)
            assert np.array_equal(w.gemm.input_values, inputs)

    def test_extraction_peak_memory_below_model_weights(self):
        import tracemalloc

        model = _small_bert()
        image = np.random.default_rng(2).normal(size=(3, 32, 32))
        weight_bytes = sum(layer.weight.nbytes for layer in _weighted_layers(model).values())
        tracemalloc.start()
        try:
            extract_workloads(model, image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Copying the operands out would allocate every weight matrix again.
        assert peak < weight_bytes

    def test_conversion_adds_no_temporary_beyond_the_new_weights(self):
        import tracemalloc

        model = _small_bert()
        largest = max(layer.weight.nbytes for layer in _weighted_layers(model).values())
        tracemalloc.start()
        try:
            convert_to_onn(model, ONNConversionConfig(weight_bits=8))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Conversion keeps the quantized weights it allocates (``current``).
        # Quantizing a layer out of place through ``np.abs`` and per-step
        # temporaries would put one more weight matrix on top of that.
        assert peak - current < largest // 2
