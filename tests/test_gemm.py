"""Tests for the GEMM workload record."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import zero_fraction_reference
from repro.dataflow.gemm import GEMMWorkload
from repro.utils.blocks import BLOCK


class TestConstruction:
    def test_basic_quantities(self):
        gemm = GEMMWorkload("g", m=4, n=6, k=5)
        assert gemm.num_macs == 120
        assert gemm.num_ops == 240
        assert gemm.input_bytes == 4 * 5
        assert gemm.weight_bytes == 5 * 6
        assert gemm.output_bytes == 4 * 6
        assert gemm.total_bytes == 20 + 30 + 24

    def test_bit_scaling_of_bytes(self):
        gemm = GEMMWorkload("g", m=4, n=4, k=4, input_bits=4)
        assert gemm.input_bytes == 4 * 4 * 0.5

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GEMMWorkload("g", m=0, n=1, k=1)
        with pytest.raises(ValueError):
            GEMMWorkload("g", m=1, n=-2, k=1)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            GEMMWorkload("g", m=1, n=1, k=1, input_bits=0)

    def test_weight_shape_checked(self):
        with pytest.raises(ValueError):
            GEMMWorkload("g", m=2, n=3, k=4, weight_values=np.zeros((3, 4)))

    def test_input_shape_checked(self):
        with pytest.raises(ValueError):
            GEMMWorkload("g", m=2, n=3, k=4, input_values=np.zeros((4, 2)))

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            GEMMWorkload(
                "g", m=2, n=3, k=4,
                weight_values=np.zeros((4, 3)),
                pruning_mask=np.ones((3, 4), dtype=bool),
            )


class TestDataAwareness:
    def test_sparsity_from_mask(self):
        mask = np.array([[True, False], [False, False]])
        gemm = GEMMWorkload("g", m=1, n=2, k=2,
                            weight_values=np.ones((2, 2)), pruning_mask=mask)
        assert gemm.sparsity == pytest.approx(0.75)

    def test_sparsity_from_zero_weights(self):
        weights = np.array([[0.0, 1.0], [0.0, 2.0]])
        gemm = GEMMWorkload("g", m=1, n=2, k=2, weight_values=weights)
        assert gemm.sparsity == pytest.approx(0.5)

    def test_sparsity_without_values(self):
        assert GEMMWorkload("g", m=1, n=1, k=1).sparsity == 0.0

    def test_effective_weights_apply_mask(self):
        weights = np.ones((2, 2))
        mask = np.array([[True, False], [True, True]])
        gemm = GEMMWorkload("g", m=1, n=2, k=2, weight_values=weights, pruning_mask=mask)
        assert gemm.effective_weights()[0, 1] == 0.0

    def test_normalized_weights_range(self):
        weights = np.array([[2.0, -4.0], [1.0, 0.5]])
        gemm = GEMMWorkload("g", m=1, n=2, k=2, weight_values=weights)
        normalized = gemm.normalized_weights()
        assert np.max(np.abs(normalized)) == pytest.approx(1.0)

    def test_normalized_weights_all_zero(self):
        gemm = GEMMWorkload("g", m=1, n=2, k=2, weight_values=np.zeros((2, 2)))
        np.testing.assert_allclose(gemm.normalized_weights(), 0.0)

    def test_normalized_none_when_absent(self):
        gemm = GEMMWorkload("g", m=1, n=1, k=1)
        assert gemm.normalized_weights() is None
        assert gemm.normalized_inputs() is None

    def test_normalized_inputs(self):
        gemm = GEMMWorkload("g", m=2, n=1, k=2, input_values=np.array([[1.0, -2.0], [0.5, 0.0]]))
        assert np.max(np.abs(gemm.normalized_inputs())) == pytest.approx(1.0)

    def test_normalized_operands_bit_identical_to_abs_peak(self):
        rng = np.random.default_rng(5)
        weights = -np.abs(rng.normal(size=(6, 4)))
        inputs = rng.normal(size=(3, 6))
        gemm = GEMMWorkload("g", m=3, n=4, k=6, weight_values=weights, input_values=inputs)
        assert gemm.normalized_weights().tobytes() == (
            weights / np.max(np.abs(weights))
        ).tobytes()
        assert gemm.normalized_inputs().tobytes() == (inputs / np.max(np.abs(inputs))).tobytes()


def _zero_fraction_weights():
    weights = np.random.default_rng(6).normal(size=(9, 11))
    weights[::2, ::3] = 0.0
    weights[1::4, 1::2] = -0.0
    weights[3, 5] = np.nan
    # Larger than one block, with zeros across the block boundaries.
    layer_weight = np.random.default_rng(8).normal(size=(383, 257))
    flat = layer_weight.reshape(-1)
    flat[::5] = 0.0
    flat[BLOCK - 2 : BLOCK + 2] = [-0.0, np.nan, 0.0, -0.0]
    wide = np.ones((257, 2 * 383))
    wide[:, ::2] = layer_weight.T
    return {
        "mixed_zeros": weights,
        "f_ordered": np.asfortranarray(weights),
        "all_zero": np.zeros((9, 11)),
        "no_zero": np.ones((9, 11)),
        "large": np.ascontiguousarray(layer_weight.T),
        # What extraction records: the F-ordered ``weight.T`` view.
        "large_weight_t": layer_weight.T,
        "large_strided": wide[:, ::2],
    }


class TestZeroFraction:
    """Counting sparsity equals the old mean-of-a-mask formulas bit for bit."""

    @staticmethod
    def _bits(value):
        return struct.pack("<d", value)

    @pytest.mark.parametrize("case", sorted(_zero_fraction_weights()))
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_mean_formula(self, case, masked):
        weights = _zero_fraction_weights()[case]
        mask = None
        if masked:
            mask = np.random.default_rng(7).uniform(size=weights.shape) > 0.3
        k, n = weights.shape
        gemm = GEMMWorkload("g", m=1, n=n, k=k, weight_values=weights, pruning_mask=mask)
        assert self._bits(gemm.sparsity) == self._bits(zero_fraction_reference(gemm))

    @pytest.mark.parametrize("fill", [True, False])
    def test_uniform_masks(self, fill):
        gemm = GEMMWorkload("g", m=1, n=3, k=7, weight_values=np.ones((7, 3)),
                            pruning_mask=np.full((7, 3), fill))
        assert self._bits(gemm.sparsity) == self._bits(zero_fraction_reference(gemm))


class TestTransforms:
    def test_with_bits(self):
        gemm = GEMMWorkload("g", m=2, n=2, k=2)
        requantized = gemm.with_bits(4, 4)
        assert requantized.input_bits == 4
        assert requantized.output_bits == 4
        assert gemm.input_bits == 8  # original untouched

    def test_with_bits_preserves_values(self):
        weights = np.ones((2, 2))
        gemm = GEMMWorkload("g", m=2, n=2, k=2, weight_values=weights)
        assert gemm.with_bits(4, 4).weight_values is weights

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
    )
    def test_macs_property(self, m, n, k):
        assert GEMMWorkload("g", m=m, n=n, k=k).num_macs == m * n * k
