"""Uniform quantization utilities used by the digital-to-ONN conversion pass.

Analog PTCs encode operands with a limited DAC/ADC resolution; the conversion pass
snaps weights (and, during simulation, activations) to the representable grid so the
workload records carry the values the hardware will actually see.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.utils.blocks import BLOCK, fresh_like


def peak_abs(values: np.ndarray) -> float:
    """``max|v|`` over ``values`` without allocating the ``|v|`` temporary.

    Taken as ``max(max(v), -min(v))``, which is bit-identical to
    ``np.max(np.abs(v))`` on floats (``|v|`` is exactly ``v`` or ``-v``).  The
    extrema are converted to Python floats *before* the negation, so integer
    inputs cannot wrap (unsigned ``-min``) or overflow (``-INT_MIN``) the way
    numpy integer negation does.  ``values`` must be non-empty.
    """
    values = np.asarray(values)
    # abs() only turns the -0.0 of an all-zero array into 0.0; NaN propagates.
    return abs(max(float(values.max()), -float(values.min())))


def quantize_uniform(
    values: np.ndarray,
    bits: int,
    symmetric: bool = True,
) -> np.ndarray:
    """Quantize ``values`` to a ``bits``-bit uniform grid and return dequantized floats.

    With ``symmetric=True`` the grid spans ``[-max|v|, +max|v|]`` (signed encoding,
    the natural fit for full-range PTCs); otherwise it spans ``[min(v), max(v)]``
    (unsigned / intensity encoding).  The result is always a fresh array, and
    the rounding and rescaling run in place on it, block by block,
    bit-identical to ``np.round(v / scale) * scale``.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.copy()
    if symmetric:
        peak = peak_abs(values)
        if peak == 0.0:
            return np.zeros_like(values)
        # Signed grid with 2^(bits-1) - 1 positive levels.
        levels = max(2 ** (bits - 1) - 1, 1)
        return _snap(values, peak / levels)
    low = float(values.min())
    high = float(values.max())
    if high == low:
        return np.full_like(values, low)
    levels = 2**bits - 1
    return _snap(values, (high - low) / levels, low)


def _snap(values: np.ndarray, scale: float, low: Optional[float] = None) -> np.ndarray:
    """``rint((v - low) / scale) * scale + low`` into one fresh array.

    Without ``low`` the offset steps are skipped (``rint(v / scale) * scale``).
    The steps run block by block (:mod:`repro.utils.blocks`) in place on the
    output, so no full-size temporary is written.  The divide stays a divide:
    multiplying by ``1 / scale`` would round differently.
    """
    src, out, dst = fresh_like(values)
    for i in range(0, src.size, BLOCK):
        grid = dst[i : i + BLOCK]
        if low is None:
            np.divide(src[i : i + BLOCK], scale, out=grid)
        else:
            np.subtract(src[i : i + BLOCK], low, out=grid)
            grid /= scale
        np.rint(grid, out=grid)
        grid *= scale
        if low is not None:
            grid += low
    return out


def quantize_uniform_batch(
    values: np.ndarray,
    bits: int,
    symmetric: bool = True,
) -> np.ndarray:
    """Per-slice :func:`quantize_uniform` over a leading ``(trials, ...)`` axis.

    Each slice ``values[i]`` gets its own grid (per-trial peak / range), exactly
    as if :func:`quantize_uniform` were called per trial -- the scale is a
    per-trial scalar broadcast over the slice, so the result is bit-identical
    to the per-trial loop -- but the rounding and rescaling run as one batched
    numpy call.  Float inputs keep their dtype (the ``REPRO_DTYPE=float32``
    batched path quantizes float32 stacks without a float64 round trip).
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    values = np.asarray(values)
    if values.dtype.kind != "f":
        values = values.astype(float)
    if values.size == 0:
        return values.copy()
    if values.ndim < 2:
        # A (trials,) stack of scalars: each slice still gets its own grid.
        return quantize_uniform_batch(
            values.reshape(-1, 1), bits, symmetric=symmetric
        ).reshape(values.shape)
    reduce_axes = tuple(range(1, values.ndim))
    if symmetric:
        # max(|v|) as max(max(v), -min(v)): two reductions, no |v| temporary
        # (bit-identical -- |v| is exactly v or -v for every float).
        peak = np.maximum(
            values.max(axis=reduce_axes, keepdims=True),
            -values.min(axis=reduce_axes, keepdims=True),
        )
        levels = max(2 ** (bits - 1) - 1, 1)
        scale = peak / levels
        safe = np.where(scale == 0.0, 1.0, scale)
        # In-place round/rescale: one output allocation instead of three
        # temporaries (these stacks are the batched path's largest tensors).
        out = np.divide(values, safe, out=np.empty_like(values))
        np.round(out, out=out)
        out *= safe
        if np.any(peak == 0.0):
            out[np.broadcast_to(peak == 0.0, out.shape)] = 0.0
        return out
    low = values.min(axis=reduce_axes, keepdims=True)
    high = values.max(axis=reduce_axes, keepdims=True)
    levels = 2**bits - 1
    span = high - low
    safe = np.where(span == 0.0, 1.0, span) / levels
    out = np.round((values - low) / safe) * safe + low
    return np.where(span == 0.0, low + np.zeros_like(values), out)


def receiver_limited_bits(nominal_bits: int, effective_bits: Optional[float]) -> int:
    """DAC/ADC resolution the optical link can actually deliver.

    The converter may be built for ``nominal_bits``, but the receiver only
    resolves :attr:`~repro.core.snr.SNRReport.effective_bits` amplitude levels;
    quantizing operands to ``min(nominal, floor(effective))`` makes the
    simulated grid reflect what the link closes, floored at 1 bit so a
    degenerate link (zero received power) still produces a finite, NaN-free
    evaluation instead of a divide-by-zero.  ``None`` or infinite
    ``effective_bits`` means "receiver not modeled": the nominal grid applies.
    """
    if nominal_bits < 1:
        raise ValueError(f"nominal_bits must be >= 1, got {nominal_bits}")
    if effective_bits is None or math.isinf(effective_bits):
        return nominal_bits
    if math.isnan(effective_bits):
        raise ValueError("effective_bits must not be NaN")
    return max(1, min(nominal_bits, int(math.floor(effective_bits))))


def quantization_error(values: np.ndarray, bits: int, symmetric: bool = True) -> float:
    """Root-mean-square error introduced by ``bits``-bit uniform quantization."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    quantized = quantize_uniform(values, bits, symmetric=symmetric)
    return float(np.sqrt(np.mean((values - quantized) ** 2)))


def quantize_with_scale(values: np.ndarray, bits: int) -> Tuple[np.ndarray, float]:
    """Quantize to signed integers and return ``(int_codes, scale)``.

    Useful when the downstream model wants the raw DAC codes (e.g. to estimate
    driver power from the code value) rather than the dequantized floats.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.astype(int), 1.0
    peak = peak_abs(values)
    levels = max(2 ** (bits - 1) - 1, 1)
    if peak == 0.0:
        return np.zeros(values.shape, dtype=int), 1.0
    scale = peak / levels
    codes = values / scale
    np.rint(codes, out=codes)
    np.clip(codes, -levels - 1, levels, out=codes)
    return codes.astype(int), scale
