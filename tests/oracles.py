"""Reference implementations the optimized product paths are checked against.

These are the straightforward Python loops the vectorized code replaced.  They
live only here, in the test suite, as equivalence oracles:

- :func:`im2col_loop` -- Conv2d's per-window im2col double loop;
- :func:`loop_monte_carlo` -- the one-trial-at-a-time Monte Carlo study
  (a full :func:`~repro.variation.accuracy.noisy_forward` per trial), with
  the signature of :func:`repro.variation.montecarlo.run_monte_carlo`.

Next to them sit the plain numpy formulas that allocation-light kernels
replaced, each kept verbatim so the rewrite can be checked bit for bit:

- :func:`quantize_uniform_reference`, :func:`quantize_with_scale_reference`
  -- ``np.round(v / scale) * scale`` with an ``np.abs`` peak;
- :func:`gelu_reference` -- the tanh GELU with ``x**3``;
- :func:`zero_fraction_reference` -- ``GEMMWorkload`` sparsity as a mean.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.snr import SNRReport
from repro.dataflow.gemm import GEMMWorkload
from repro.onn.layers import Conv2d
from repro.variation.accuracy import (
    AccuracyReport,
    TrialResult,
    aggregate_trials,
    classification_agreement,
    noisy_forward,
    output_rmse,
    reference_forward,
)
from repro.variation.montecarlo import AccuracyRequest, LinkOperatingPoint
from repro.variation.sampler import make_trial_rng, rng_mode


def im2col_loop(conv: Conv2d, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
    """The per-window im2col: same contract as ``Conv2d._im2col``."""
    channels, height, width = x.shape
    out_h, out_w = conv.output_hw(height, width)
    padded = np.pad(
        x, ((0, 0), (conv.padding, conv.padding), (conv.padding, conv.padding))
    )
    k = conv.kernel_size
    cols = np.empty((out_h * out_w, channels * k * k))
    idx = 0
    for i in range(out_h):
        for j in range(out_w):
            patch = padded[
                :,
                i * conv.stride : i * conv.stride + k,
                j * conv.stride : j * conv.stride + k,
            ]
            cols[idx] = patch.ravel()
            idx += 1
    return cols, (out_h, out_w)


def loop_monte_carlo(
    request: AccuracyRequest,
    input_bits: int = 8,
    weight_bits: int = 8,
    output_bits: int = 8,
    link: Optional[LinkOperatingPoint] = None,
    nominal_snr: Optional[SNRReport] = None,
) -> AccuracyReport:
    """The Monte Carlo study as a serial loop of single-trial forwards."""
    if nominal_snr is not None:
        nominal_bits = nominal_snr.effective_bits
    elif link is not None:
        nominal_bits = link.effective_bits(request.noise.static_loss_db())
    else:
        nominal_bits = math.inf
    if request.reference == "float":
        reference = np.asarray(request.model.forward(request.inputs), dtype=float)
    else:
        reference = reference_forward(
            request.model,
            request.inputs,
            input_bits=input_bits,
            weight_bits=weight_bits,
            output_bits=output_bits,
            effective_bits=nominal_bits,
        )
    mode = rng_mode()
    results = []
    for trial in range(request.trials):
        rng = make_trial_rng(request.seed, trial, mode)
        extra_loss_db = request.noise.sample_loss_db(rng)
        effective_bits = (
            link.effective_bits(extra_loss_db) if link is not None else math.inf
        )
        outputs = noisy_forward(
            request.model,
            request.inputs,
            request.noise,
            rng,
            input_bits=input_bits,
            weight_bits=weight_bits,
            output_bits=output_bits,
            effective_bits=effective_bits,
        )
        results.append(
            TrialResult(
                trial=trial,
                accuracy=classification_agreement(outputs, reference),
                rmse=output_rmse(outputs, reference),
                effective_bits=float(effective_bits),
                extra_loss_db=float(extra_loss_db),
            )
        )
    return aggregate_trials(
        tuple(results), seed=request.seed, effective_bits_nominal=float(nominal_bits)
    )


def quantize_uniform_reference(
    values: np.ndarray, bits: int, symmetric: bool = True
) -> np.ndarray:
    """``quantize_uniform`` as three full-size temporaries per step."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.copy()
    if symmetric:
        peak = float(np.max(np.abs(values)))
        if peak == 0.0:
            return np.zeros_like(values)
        levels = max(2 ** (bits - 1) - 1, 1)
        scale = peak / levels
        return np.round(values / scale) * scale
    low = float(values.min())
    high = float(values.max())
    if high == low:
        return np.full_like(values, low)
    levels = 2**bits - 1
    scale = (high - low) / levels
    return np.round((values - low) / scale) * scale + low


def quantize_with_scale_reference(values: np.ndarray, bits: int) -> Tuple[np.ndarray, float]:
    """``quantize_with_scale`` with an ``np.abs`` peak and out-of-place rounding."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.astype(int), 1.0
    peak = float(np.max(np.abs(values)))
    levels = max(2 ** (bits - 1) - 1, 1)
    if peak == 0.0:
        return np.zeros(values.shape, dtype=int), 1.0
    scale = peak / levels
    return np.clip(np.round(values / scale), -levels - 1, levels).astype(int), scale


def gelu_reference(x: np.ndarray) -> np.ndarray:
    """The tanh-approximation GELU with the cube written as ``x**3``."""
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def zero_fraction_reference(gemm: GEMMWorkload) -> float:
    """``GEMMWorkload`` sparsity as the mean of a boolean mask."""
    if gemm.pruning_mask is not None:
        return float(1.0 - gemm.pruning_mask.mean())
    if gemm.weight_values is not None:
        return float(np.mean(gemm.weight_values == 0.0))
    return 0.0
