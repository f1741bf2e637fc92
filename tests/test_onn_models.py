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
from repro.onn.convert import ptc_assignment_of
from repro.onn.layers import Conv2d, Linear
from repro.onn.models import build_bert_base_image, build_mlp, build_vgg8_cifar10
from repro.onn.models.transformer import TransformerEncoder
from repro.onn.prune import sparsity
from repro.onn.quantize import quantize_with_scale
from repro.onn.workload import max_layer_bytes, total_macs


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
