"""PR 5: vectorized forward path, trial-batched Monte Carlo, bench harness.

Covers the three contracts the performance work must not break:

- the stride-tricks im2col and every ``forward_batch`` agree with the loop
  oracles in ``tests/oracles.py`` (bit-identical where the arithmetic is
  re-orderings of the same elementwise ops, <= 1e-9 everywhere else);
- the trial-batched Monte Carlo consumes each trial's SeedSequence child RNG
  bit-identically to the per-trial study loop, so reports match the oracle
  across chunkings and execution backends;
- the ``repro bench`` harness produces sane machine-readable reports and its
  speedup gate fails loudly when a comparison is missing.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.dataflow.gemm import GEMMWorkload
from oracles import group_trials_by_bits_loop, im2col_loop, loop_monte_carlo
from repro.onn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GELU,
    LayerNorm,
    Linear,
    MaxPool2d,
    Module,
    MultiHeadAttention,
    ReLU,
    Sequential,
)
from repro.onn.models import build_mlp, build_vgg8_cifar10
from repro.onn.models.transformer import TransformerEncoder
from repro.onn.quantize import quantize_uniform, quantize_uniform_batch
from repro.scenarios import REGISTRY
from repro.scenarios.bench import (
    BENCH_SCHEMA,
    bench_scenarios,
    check_speedups,
    time_scenario,
    write_bench_report,
)
from repro.variation import (
    AccuracyRequest,
    NoiseSpec,
    PhaseError,
    WeightEncodingError,
    noisy_forward,
    noisy_forward_batch,
    standard_noise,
)
from repro.variation.accuracy import (
    _group_trials_by_bits,
    classification_agreement,
    classification_agreement_batch,
    model_fingerprint,
    output_rmse,
    output_rmse_batch,
)
from repro.variation.models import Crosstalk, LinkLossDrift, VariationModel
from repro.variation import montecarlo
from repro.variation.montecarlo import run_monte_carlo
from repro.variation.stages import STAGE_NAMES, StageAccumulator, observe_stages
from repro.variation.sampler import trial_rng

RNG = np.random.default_rng(20250730)


@pytest.fixture
def small_models():
    return {
        "mlp": build_mlp((16, 24, 12, 6), rng=np.random.default_rng(3)),
        "vgg": build_vgg8_cifar10(
            width_multiplier=0.0625, input_size=8, hidden_features=32,
            rng=np.random.default_rng(4),
        ),
        "transformer": TransformerEncoder(
            image_size=8, patch_size=4, embed_dim=16, num_heads=4, mlp_dim=32,
            num_layers=2, num_classes=5, rng=np.random.default_rng(5),
        ),
    }


def model_input(kind: str) -> np.ndarray:
    rng = np.random.default_rng(99)
    if kind == "mlp":
        return rng.normal(size=(48, 16))
    if kind == "vgg":
        return rng.normal(size=(3, 8, 8))
    return rng.normal(size=(3, 8, 8))


class TestIm2colEquivalence:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_loop_and_strided_im2col_are_bit_identical(self, stride, padding):
        conv = Conv2d(3, 4, 3, stride=stride, padding=padding,
                      rng=np.random.default_rng(0))
        x = RNG.normal(size=(3, 11, 9))
        cols_loop, hw_loop = im2col_loop(conv, x)
        cols_fast, hw_fast = conv._im2col(x)
        assert hw_loop == hw_fast
        assert np.array_equal(cols_loop, cols_fast)

    def test_forward_and_gemms_match_across_modes(self, monkeypatch):
        conv = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(1))
        x = RNG.normal(size=(2, 7, 7))
        y_fast = conv.forward(x)
        gemms_fast, _ = conv.extract_gemms(x)
        monkeypatch.setattr(Conv2d, "_im2col", im2col_loop)
        y_loop = conv.forward(x)
        gemms_loop, _ = conv.extract_gemms(x)
        assert np.array_equal(y_loop, y_fast)
        assert np.array_equal(gemms_loop[0].input_values, gemms_fast[0].input_values)

    def test_batched_im2col_matches_per_trial(self):
        conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=np.random.default_rng(2))
        stack = RNG.normal(size=(5, 3, 9, 9))
        cols_batch, hw = conv._im2col_batch(stack)
        for i in range(stack.shape[0]):
            cols_i, hw_i = conv._im2col(stack[i])
            assert hw == hw_i
            assert np.array_equal(cols_batch[i], cols_i)


class TestForwardBatchLayers:
    """forward_batch of every layer type against the per-trial loop."""

    def assert_batch_matches(self, layer, stack, weight=None, tol=0.0):
        batched = layer.forward_batch(stack, weight=weight) if weight is not None \
            else layer.forward_batch(stack)
        for i in range(stack.shape[0]):
            if weight is None:
                expected = layer.forward(stack[i])
            else:
                expected = Module.forward_batch(layer, stack[i][None], weight[i][None])[0]
            np.testing.assert_allclose(batched[i], expected, atol=tol, rtol=0)

    def test_linear_with_per_trial_weights(self):
        layer = Linear(6, 4, rng=np.random.default_rng(0))
        stack = RNG.normal(size=(5, 9, 6))
        weights = RNG.normal(size=(5, 4, 6))
        batched = layer.forward_batch(stack, weight=weights)
        for i in range(5):
            expected = stack[i] @ weights[i].T + layer.bias
            np.testing.assert_allclose(batched[i], expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_linear_shared_rows_per_trial_weights_is_c_ordered(self, bias, dtype):
        # A shared (rows, in) input with per-trial weights is one GEMM against
        # the stacked weights; the unstacked output must be a C-ordered
        # (trials, rows, out) array, bit-identical to the moved-axis view
        # plus bias, so reductions over it (the quantizer's peak) match too.
        from repro.onn.quantize import quantize_uniform_batch

        trials, rows, n_in, n_out = 64, 48, 12, 24
        layer = Linear(n_in, n_out, bias=bias, rng=np.random.default_rng(0))
        if bias:
            layer.bias = RNG.normal(size=n_out)
        shared = RNG.normal(size=(rows, n_in)).astype(dtype)
        stack = np.broadcast_to(shared, (trials, rows, n_in))
        weights = RNG.normal(size=(trials, n_out, n_in)).astype(dtype)
        batched = layer.forward_batch(stack, weight=weights)
        stacked = (shared @ weights.reshape(trials * n_out, n_in).T).reshape(
            rows, trials, n_out
        )
        expected = np.moveaxis(stacked, -2, 0)
        if bias:
            expected = expected + layer.bias.astype(dtype)
        assert batched.flags.c_contiguous
        assert batched.dtype == expected.dtype == dtype
        assert batched.shape == (trials, rows, n_out)
        assert np.array_equal(batched, expected)
        assert np.array_equal(
            quantize_uniform_batch(batched, 8), quantize_uniform_batch(expected, 8)
        )

    def test_linear_vector_per_trial(self):
        layer = Linear(6, 4, rng=np.random.default_rng(0))
        stack = RNG.normal(size=(5, 6))
        weights = RNG.normal(size=(5, 4, 6))
        batched = layer.forward_batch(stack, weight=weights)
        for i in range(5):
            np.testing.assert_allclose(
                batched[i], stack[i] @ weights[i].T + layer.bias, atol=1e-12, rtol=0
            )

    def test_conv_with_per_trial_weights(self):
        layer = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(1))
        stack = RNG.normal(size=(4, 2, 6, 6))
        weights = RNG.normal(size=(4, 3, 2, 3, 3))
        batched = layer.forward_batch(stack, weight=weights)
        import copy
        for i in range(4):
            clone = copy.copy(layer)
            clone.weight = weights[i]
            clone.pruning_mask = None
            np.testing.assert_allclose(
                batched[i], clone.forward(stack[i]), atol=1e-12, rtol=0
            )

    def test_attention_batch_matches_per_trial(self):
        layer = MultiHeadAttention(16, 4, rng=np.random.default_rng(2))
        stack = RNG.normal(size=(3, 7, 16))
        batched = layer.forward_batch(stack)
        for i in range(3):
            np.testing.assert_allclose(
                batched[i], layer.forward(stack[i]), atol=1e-9, rtol=0
            )

    @pytest.mark.parametrize(
        "layer,shape",
        [
            (ReLU(), (4, 5, 6)),
            (GELU(), (4, 5, 6)),
            (Flatten(), (4, 3, 5, 5)),
            (MaxPool2d(2), (4, 3, 6, 6)),
            (AvgPool2d(2), (4, 3, 6, 6)),
            (BatchNorm2d(3), (4, 3, 5, 5)),
            (LayerNorm(6), (4, 5, 6)),
        ],
    )
    def test_stateless_layers_batch_exactly(self, layer, shape):
        if isinstance(layer, BatchNorm2d):
            layer.scale = RNG.normal(size=3)
            layer.shift = RNG.normal(size=3)
        stack = RNG.normal(size=shape)
        batched = layer.forward_batch(stack)
        for i in range(shape[0]):
            assert np.array_equal(batched[i], layer.forward(stack[i]))

    def test_sequential_chains_forward_batch(self):
        model = Sequential(
            Linear(6, 8, rng=np.random.default_rng(0)), ReLU(),
            Linear(8, 3, rng=np.random.default_rng(1)),
        )
        stack = RNG.normal(size=(4, 5, 6))
        batched = model.forward_batch(stack)
        for i in range(4):
            np.testing.assert_allclose(
                batched[i], model.forward(stack[i]), atol=1e-12, rtol=0
            )

    def test_base_module_fallback_clones_per_trial(self):
        class Doubler(Module):
            def __init__(self):
                super().__init__(name="doubler")
                self.weight = np.array([2.0])

            def forward(self, x):
                return x * self.weight[0]

        layer = Doubler()
        stack = RNG.normal(size=(3, 4))
        weights = np.array([[1.0], [2.0], [3.0]])
        batched = layer.forward_batch(stack, weight=weights)
        for i in range(3):
            assert np.array_equal(batched[i], stack[i] * weights[i, 0])
        # the shared layer is never mutated by the fallback
        assert layer.weight[0] == 2.0


class TestModelEquivalence:
    @pytest.mark.parametrize("kind", ["mlp", "vgg", "transformer"])
    def test_loop_vs_vectorized_forward(self, monkeypatch, small_models, kind):
        model = small_models[kind]
        x = model_input(kind)
        y_fast = model.forward(x)
        monkeypatch.setattr(Conv2d, "_im2col", im2col_loop)
        y_loop = model.forward(x)
        np.testing.assert_allclose(y_fast, y_loop, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("kind", ["mlp", "vgg", "transformer"])
    def test_loop_vs_vectorized_gemm_extraction(self, monkeypatch, small_models, kind):
        model = small_models[kind]
        x = model_input(kind)
        gemms_fast, out_fast = model.extract_gemms(x)
        monkeypatch.setattr(Conv2d, "_im2col", im2col_loop)
        gemms_loop, out_loop = model.extract_gemms(x)
        assert [g.name for g in gemms_loop] == [g.name for g in gemms_fast]
        np.testing.assert_allclose(out_fast, out_loop, atol=1e-9, rtol=0)
        for a, b in zip(gemms_loop, gemms_fast):
            np.testing.assert_allclose(
                b.input_values, a.input_values, atol=1e-9, rtol=0
            )
            np.testing.assert_allclose(
                b.weight_values, a.weight_values, atol=1e-9, rtol=0
            )

    def test_non_sequential_model_batches_via_fallback(self, small_models):
        model = small_models["transformer"]
        x = model_input("transformer")
        stack = np.stack([x, x * 0.5])
        batched = model.forward_batch(stack)
        np.testing.assert_allclose(batched[0], model.forward(x), atol=0, rtol=0)
        np.testing.assert_allclose(
            batched[1], model.forward(x * 0.5), atol=0, rtol=0
        )


class TestQuantizeBatch:
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("bits", [1, 3, 8])
    def test_matches_per_slice_quantize(self, symmetric, bits):
        stack = RNG.normal(size=(6, 5, 4))
        stack[2] = 0.0  # degenerate slice: zero peak / zero span
        batched = quantize_uniform_batch(stack, bits, symmetric=symmetric)
        for i in range(6):
            expected = quantize_uniform(stack[i], bits, symmetric=symmetric)
            assert np.array_equal(batched[i], expected)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            quantize_uniform_batch(np.ones((2, 2)), 0)


class TestNoiseBatchEquivalence:
    def per_trial_reference(self, spec, weights, seed, trials):
        outs = []
        for t in range(trials):
            outs.append(spec.perturb_weights(weights, trial_rng(seed, t)))
        return np.stack(outs)

    @pytest.mark.parametrize(
        "spec",
        [
            NoiseSpec((WeightEncodingError(sigma=0.05),)),
            NoiseSpec((WeightEncodingError(sigma=0.05, relative=False),)),
            NoiseSpec((PhaseError(sigma_rad=0.1),)),
            standard_noise(),
        ],
    )
    def test_batch_weights_bit_identical(self, spec):
        weights = RNG.normal(size=(6, 5))
        rngs = [trial_rng(11, t) for t in range(7)]
        batched = spec.perturb_weights_batch(weights, rngs)
        expected = self.per_trial_reference(spec, weights, 11, 7)
        assert np.array_equal(batched, expected)

    def test_fused_sampling_supported_for_builtins_only(self):
        assert standard_noise().supports_fused_sampling()

        class CustomNoise(VariationModel):
            pass

        assert not NoiseSpec((CustomNoise(),)).supports_fused_sampling()
        assert not NoiseSpec(
            (WeightEncodingError(), CustomNoise())
        ).supports_fused_sampling()

    def test_fused_draw_count_covers_stochastic_models(self):
        spec = standard_noise()
        assert spec.weight_draw_count(30) == 60  # encoding + phase
        assert NoiseSpec((Crosstalk(), LinkLossDrift())).weight_draw_count(30) == 0

    def test_crosstalk_batch_is_bit_identical(self):
        model = Crosstalk.from_db(25.0)
        stack = RNG.normal(size=(5, 9, 7))
        batched = model.perturb_activations_batch(stack, [trial_rng(0, 0)] * 5)
        for i in range(5):
            assert np.array_equal(batched[i], model.perturb_activations(stack[i], None))


class TestNoisyForwardBatch:
    def reference_stack(self, model, x, spec, seed, trials, effective):
        outs, losses = [], []
        for t in range(trials):
            rng = trial_rng(seed, t)
            losses.append(spec.sample_loss_db(rng))
            outs.append(noisy_forward(model, x, spec, rng,
                                      effective_bits=effective[t]))
        return np.stack(outs), losses

    def test_bit_identical_to_per_trial_loop(self, small_models):
        model = small_models["mlp"]
        x = model_input("mlp")
        spec = standard_noise()
        trials = 9
        # Mixed resolved bit groups: some trials quantize at 6 bits, some at 8.
        effective = [8.4, 6.2, 8.4, 6.2, 8.4, 8.4, 6.2, 8.4, 6.2]
        expected, _ = self.reference_stack(model, x, spec, 13, trials, effective)
        rngs = [trial_rng(13, t) for t in range(trials)]
        for rng in rngs:
            spec.sample_loss_db(rng)  # consume the loss draw like the caller does
        batched = noisy_forward_batch(model, x, spec, rngs, effective_bits=effective)
        assert np.array_equal(batched, expected)

    def test_custom_model_falls_back_without_breaking_streams(self, small_models):
        class ScaledEncoding(WeightEncodingError):
            """Subclass: unknown draw layout, must use the per-model path."""

        spec = NoiseSpec((ScaledEncoding(sigma=0.1),))
        assert not spec.supports_fused_sampling()
        model = small_models["mlp"]
        x = model_input("mlp")
        expected, _ = self.reference_stack(model, x, spec, 5, 4, [None] * 4)
        rngs = [trial_rng(5, t) for t in range(4)]
        for rng in rngs:
            spec.sample_loss_db(rng)
        batched = noisy_forward_batch(model, x, spec, rngs)
        assert np.array_equal(batched, expected)

    def test_pruning_masks_stay_exactly_zero(self):
        model = build_mlp((8, 6, 4), rng=np.random.default_rng(8))
        mask = np.random.default_rng(1).random(size=model.layers[0].weight.shape) > 0.5
        model.layers[0].pruning_mask = mask
        spec = standard_noise()
        x = np.random.default_rng(2).normal(size=(10, 8))
        expected = []
        for t in range(5):
            rng = trial_rng(3, t)
            spec.sample_loss_db(rng)
            expected.append(noisy_forward(model, x, spec, rng))
        rngs = [trial_rng(3, t) for t in range(5)]
        for rng in rngs:
            spec.sample_loss_db(rng)
        batched = noisy_forward_batch(model, x, spec, rngs)
        assert np.array_equal(batched, np.stack(expected))

    @pytest.mark.parametrize("kind", ["vgg", "transformer"])
    def test_conv_and_opaque_models_batch_correctly(self, small_models, kind):
        model = small_models[kind]
        x = model_input(kind)
        spec = standard_noise()
        expected = []
        for t in range(3):
            rng = trial_rng(17, t)
            spec.sample_loss_db(rng)
            expected.append(noisy_forward(model, x, spec, rng, effective_bits=7.5))
        rngs = [trial_rng(17, t) for t in range(3)]
        for rng in rngs:
            spec.sample_loss_db(rng)
        batched = noisy_forward_batch(model, x, spec, rngs,
                                      effective_bits=[7.5] * 3)
        np.testing.assert_allclose(batched, np.stack(expected), atol=1e-9, rtol=0)

    def test_rejects_empty_or_mismatched_trials(self, small_models):
        with pytest.raises(ValueError):
            noisy_forward_batch(small_models["mlp"], model_input("mlp"),
                                standard_noise(), [])
        with pytest.raises(ValueError):
            noisy_forward_batch(small_models["mlp"], model_input("mlp"),
                                standard_noise(), [trial_rng(0, 0)],
                                effective_bits=[8.0, 8.0])


class TestTrialBitGroups:
    """Resolving bits once per distinct floor groups trials as the loop does."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_trial_resolution(self, seed):
        rng = np.random.default_rng(seed)
        pool = [None, math.inf, -math.inf, 0.0, 0.3, -2.5, 1.0, 5.999, 6.0]
        effective = [
            pool[i] if i < len(pool) else float(rng.uniform(-1.0, 12.0))
            for i in rng.integers(0, len(pool) + 4, size=int(rng.integers(1, 40)))
        ]
        bits = tuple(int(b) for b in rng.integers(1, 10, size=3))
        groups = _group_trials_by_bits(effective, *bits)
        expected = group_trials_by_bits_loop(effective, *bits)
        assert groups == expected
        assert list(groups) == list(expected)  # ordered by first trial

    def test_nan_still_raises(self):
        for effective in ([math.nan], [8.0, None, math.nan], [2.5, 2.5, math.nan]):
            with pytest.raises(ValueError, match="NaN"):
                _group_trials_by_bits(effective, 8, 8, 8)
            with pytest.raises(ValueError, match="NaN"):
                group_trials_by_bits_loop(effective, 8, 8, 8)


class TestBatchedMetrics:
    def test_agreement_batch_matches_scalar(self):
        ref = RNG.normal(size=(12, 5))
        outs = RNG.normal(size=(6, 12, 5))
        batched = classification_agreement_batch(outs, ref)
        for i in range(6):
            assert batched[i] == classification_agreement(outs[i], ref)

    def test_rmse_batch_matches_scalar(self):
        ref = RNG.normal(size=(12, 5))
        outs = RNG.normal(size=(6, 12, 5))
        batched = output_rmse_batch(outs, ref)
        for i in range(6):
            assert batched[i] == pytest.approx(output_rmse(outs[i], ref), abs=1e-15)

    def test_single_sample_reference(self):
        ref = RNG.normal(size=5)
        outs = RNG.normal(size=(4, 5))
        batched = classification_agreement_batch(outs, ref)
        for i in range(4):
            assert batched[i] == classification_agreement(outs[i], ref)


class TestBatchedMonteCarlo:
    def request(self, **kwargs):
        model = build_mlp((16, 24, 12, 6), rng=np.random.default_rng(3))
        inputs = np.random.default_rng(9).normal(size=(48, 16))
        defaults = dict(noise=standard_noise(), trials=13, seed=7)
        defaults.update(kwargs)
        return AccuracyRequest(model, inputs, **defaults)

    def test_loop_and_batched_reports_are_identical(self):
        assert loop_monte_carlo(self.request()) == run_monte_carlo(self.request())

    def test_per_trial_seeds_survive_chunking(self):
        """extra_loss_db is the first draw of each trial's stream: bit-equal
        values against the loop prove the seed contract held under batching."""
        loop_report = loop_monte_carlo(self.request(trials=70))
        batched_report = run_monte_carlo(self.request(trials=70))
        assert loop_report.accuracies == batched_report.accuracies
        assert loop_report.effective_bits_mean == batched_report.effective_bits_mean

    def test_trial_partition_is_deterministic_and_complete(self, monkeypatch):
        # Every study runs in fixed, contiguous chunks of at most
        # _TRIAL_CHUNK_CAP trials, folded in trial order; each chunk reads
        # its own rows of the study's draw slab.
        request = self.request(trials=150)
        slab = montecarlo.draw_slab(montecarlo.draw_slab_key(request))
        seen = []
        original = montecarlo._run_trial_chunk

        def spy(shared, trials, draws):
            seen.append(list(trials))
            assert np.array_equal(draws, slab[trials[0] : trials[-1] + 1])
            return original(shared, trials, draws)

        monkeypatch.setattr(montecarlo, "_run_trial_chunk", spy)
        report = run_monte_carlo(request)
        cap = montecarlo._TRIAL_CHUNK_CAP
        assert cap == 64
        assert seen == [list(range(0, 64)), list(range(64, 128)), list(range(128, 150))]
        assert report.trials == len(report.accuracies) == 150
        assert report == loop_monte_carlo(request)

    def test_observed_study_emits_only_compute_stages(self):
        accumulator = StageAccumulator()
        with observe_stages(accumulator):
            run_monte_carlo(self.request())
        assert set(accumulator.totals()) == {"rng", "forward", "quantize", "metrics"}
        assert set(STAGE_NAMES) == {"rng", "forward", "quantize", "metrics"}


class TestFingerprintMemoization:
    def test_model_fingerprint_is_cached_per_instance(self):
        model = build_mlp((6, 4), rng=np.random.default_rng(0))
        first = model_fingerprint(model)
        assert getattr(model, "_repro_fingerprint") == first
        assert model_fingerprint(model) is first

    def test_request_fingerprint_is_cached_per_instance(self):
        request = AccuracyRequest(
            build_mlp((6, 4), rng=np.random.default_rng(0)),
            np.random.default_rng(1).normal(size=(4, 6)),
        )
        first = request.fingerprint()
        assert request.fingerprint() is first

    def test_normalized_operands_are_memoized_and_read_only(self):
        rng = np.random.default_rng(0)
        workload = GEMMWorkload(
            "w", m=4, n=3, k=5,
            weight_values=rng.normal(size=(5, 3)),
            input_values=rng.normal(size=(4, 5)),
        )
        weights = workload.normalized_weights()
        assert workload.normalized_weights() is weights
        assert not weights.flags.writeable
        inputs = workload.normalized_inputs()
        assert workload.normalized_inputs() is inputs
        assert not inputs.flags.writeable
        assert float(np.max(np.abs(weights))) == pytest.approx(1.0)

    def test_with_bits_copy_gets_fresh_memo(self):
        rng = np.random.default_rng(0)
        workload = GEMMWorkload(
            "w", m=4, n=3, k=5, weight_values=rng.normal(size=(5, 3)),
        )
        original = workload.normalized_weights()
        copy = workload.with_bits(4, 4)
        assert copy.normalized_weights() is not original
        assert np.array_equal(copy.normalized_weights(), original)


class TestBenchHarness:
    def test_time_scenario_records_passes_and_stats(self):
        timing = time_scenario("table1_taxonomy", repeats=2, warmup=0)
        assert timing.repeats == 2
        assert timing.mode == "float64"
        assert timing.knobs["REPRO_DTYPE"] == "float64"
        assert timing.median_s > 0
        assert timing.p90_s >= timing.median_s >= timing.min_s
        assert len(timing.times_s) == 2

    def test_bench_scenarios_payload_and_speedup_gate(self):
        payload = bench_scenarios(["table1_taxonomy"], repeats=1, warmup=0)
        assert payload["schema"] == BENCH_SCHEMA
        entry = payload["scenarios"]["table1_taxonomy"]
        assert "vectorized" in entry and "reference" not in entry
        gated = {"scenarios": {"mc": {"speedup_vs_reference_median": 2.0}, "ref": {}}}
        assert check_speedups(gated, {"mc": 0.0}) == []
        failures = check_speedups(gated, {"mc": 1e9})
        assert failures and "below" in failures[0]
        assert check_speedups(gated, {"ref": 1.0}) == [
            "ref: no reference-mode comparison recorded"
        ]
        assert check_speedups(payload, {"missing": 1.0}) == ["missing: not benchmarked"]

    def test_write_report_round_trips(self, tmp_path):
        payload = bench_scenarios(["table1_taxonomy"], repeats=1, warmup=0)
        target = write_bench_report(payload, tmp_path / "bench.json")
        loaded = json.loads(target.read_text())
        assert loaded["scenarios"]["table1_taxonomy"]["vectorized"]["repeats"] == 1

    def test_cli_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        assert main([
            "bench", "table1_taxonomy", "--repeats", "1", "--warmup", "0",
            "--output", str(out),
        ]) == 0
        captured = capsys.readouterr()
        assert "table1_taxonomy" in captured.out
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["scenarios"]["table1_taxonomy"]["vectorized"]["repeats"] == 1

    def test_cli_bench_fail_below_needs_comparison(self):
        """--fail-below-ref gates the throughput mode against the reference,
        so it needs a non-reference mode to compare."""
        with pytest.raises(SystemExit, match="non-reference mode"):
            main([
                "bench", "table1_taxonomy", "--repeats", "1", "--warmup", "0",
                "--fail-below-ref", "table1_taxonomy=1.0",
            ])

    def test_cli_bench_rejects_the_retired_rng_flag(self, capsys):
        """Monte Carlo sampling has one stream contract, so bench compares
        dtype modes only and ``--rng`` is an unknown option."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "table1_taxonomy", "--rng", "philox"])
        assert excinfo.value.code == 2
        assert "--rng" in capsys.readouterr().err

    def test_cli_bench_unmet_threshold_fails(self, tmp_path, capsys):
        assert main([
            "bench", "variation_robustness", "--repeats", "1", "--warmup", "0",
            "--param", "trials=4", "--dtype", "float32",
            "--fail-below-ref", "variation_robustness=1000000",
            "--output", str(tmp_path / "b.json"),
        ]) == 1
        assert "SPEEDUP CHECK FAILED" in capsys.readouterr().err


class TestScenarioTablesUnchanged:
    """The batched study must render the same table as the per-trial loop."""

    def test_variation_robustness_table_matches_loop_path(self, monkeypatch):
        fast = REGISTRY.run("variation_robustness", store=None, force=True)
        monkeypatch.setattr(Conv2d, "_im2col", im2col_loop)
        # The engine's mc_accuracy pass resolves run_monte_carlo at call time.
        # The loop draws each trial from its own generator, so it ignores the
        # request's memoized draw slab.
        def loop(request, draws=None, **kwargs):
            return loop_monte_carlo(request, **kwargs)

        monkeypatch.setattr("repro.variation.montecarlo.run_monte_carlo", loop)
        legacy = REGISTRY.run("variation_robustness", store=None, force=True)
        assert fast.table == legacy.table
