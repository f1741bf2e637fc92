"""Noisy ONN inference and accuracy/error metrics.

:func:`noisy_forward` runs a purely functional forward pass of an
:class:`~repro.onn.layers.Sequential` model under a
:class:`~repro.variation.models.NoiseSpec`: operands are snapped to the
receiver-limited DAC/ADC grid (:func:`~repro.onn.quantize.receiver_limited_bits`
caps the nominal converter resolution at the link's SNR-derived effective
bits), weights are perturbed per weighted layer, and activations pick up
crosstalk after every analog matmul.  The shared model object is never mutated
-- perturbed weights live on shallow per-layer clones -- so concurrent trials
on several threads are safe.

The accuracy metric is *fidelity to the ideal hardware*: agreement of the noisy
argmax with the argmax of the noise-free (but still quantized) forward pass.
A zero-magnitude noise spec therefore scores exactly 1.0, and the metric
isolates what variation costs on top of quantization.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import digest, memoized_fingerprint
from repro.onn.layers import Module, Sequential, _as_float, _match_dtype, compute_dtype
from repro.onn.quantize import (
    quantize_uniform,
    quantize_uniform_batch,
    receiver_limited_bits,
)
from repro.variation.models import IDEAL, NoiseSpec
from repro.variation.stages import stage

#: RNG used for noise-free reference passes (an empty spec draws nothing).
_NULL_RNG = np.random.default_rng(0)


def _holds_modules(value: object) -> bool:
    if isinstance(value, Module):
        return True
    if isinstance(value, (list, tuple)):
        return any(isinstance(item, Module) for item in value)
    return False


def model_fingerprint(model: Module) -> str:
    """Content digest of a model: every layer's class and functional state.

    Hashes each module's full ``__dict__`` (weights, masks, bitwidths, but also
    structural knobs like pool kernel sizes, conv strides and norm scales), so
    two models that forward differently never share a digest.  Sub-modules are
    excluded from the per-layer state because :meth:`Module.modules` already
    walks them.  Memoized on the model object; like workloads, models handed to
    the evaluation machinery are treated as immutable (mutate a copy between
    runs).
    """

    def compute() -> str:
        parts = []
        for module in model.modules():
            state = tuple(
                (name, value)
                for name, value in sorted(vars(module).items())
                if not name.startswith("_repro_") and not _holds_modules(value)
            )
            parts.append((type(module).__name__, state))
        return digest("onn-model", tuple(parts))

    return memoized_fingerprint(model, compute)


def _forward_layers(model: Module) -> Tuple[Module, ...]:
    if isinstance(model, Sequential):
        return tuple(model.layers)
    return (model,)


def noisy_forward(
    model: Module,
    x: np.ndarray,
    spec: NoiseSpec,
    rng: Optional[np.random.Generator] = None,
    input_bits: int = 8,
    weight_bits: int = 8,
    output_bits: int = 8,
    effective_bits: Optional[float] = None,
) -> np.ndarray:
    """Forward ``x`` through ``model`` under device variation.

    ``input_bits``/``weight_bits``/``output_bits`` are the hardware DAC/ADC
    resolutions (typically ``arch.config.*_bits``); each is capped at the
    link's ``effective_bits`` before quantization.  ``rng`` supplies the
    trial's random stream (required only when ``spec`` has stochastic models).
    """
    rng = rng if rng is not None else _NULL_RNG
    in_bits = receiver_limited_bits(input_bits, effective_bits)
    w_bits = receiver_limited_bits(weight_bits, effective_bits)
    out_bits = receiver_limited_bits(output_bits, effective_bits)

    x = quantize_uniform(np.asarray(x, dtype=float), in_bits)
    for layer in _forward_layers(model):
        weight = getattr(layer, "weight", None)
        if weight is None:
            x = layer.forward(x)
            continue
        perturbed = spec.perturb_weights(
            layer.effective_weight() if hasattr(layer, "effective_weight") else weight,
            rng,
        )
        mask = getattr(layer, "pruning_mask", None)
        if mask is not None:
            # Pruned devices are powered off: they stay exactly zero under noise.
            perturbed = np.where(mask, perturbed, 0.0)
        clone = copy.copy(layer)
        clone.weight = quantize_uniform(perturbed, w_bits)
        clone.pruning_mask = None  # already applied above
        x = clone.forward(x)
        x = spec.perturb_activations(x, rng)
        x = quantize_uniform(x, out_bits)
    return x


def _weighted_layer_sizes(model: Module) -> List[int]:
    """Weight element counts of the layers the noisy forward perturbs, in order."""
    sizes = []
    for layer in _forward_layers(model):
        weight = getattr(layer, "weight", None)
        if weight is not None:
            sizes.append(int(np.asarray(weight).size))
    return sizes


def _weight_draw_counts(spec: NoiseSpec, model: Module) -> List[int]:
    """Standard normals one trial's weight noise draws per weighted layer."""
    return [spec.weight_draw_count(size) for size in _weighted_layer_sizes(model)]


def fused_draw_count(spec: NoiseSpec, model: Module) -> Optional[int]:
    """Standard normals one trial of a fused-sampling study consumes.

    The link-loss draws come first, then every weighted layer's block in
    layer order -- the row layout of a study's draw slab.  ``None`` when the
    spec's draw layout is not statically known (custom noise models), whose
    trials draw from per-trial generators instead.
    """
    if not spec.supports_fused_sampling():
        return None
    return spec.loss_draw_count() + sum(_weight_draw_counts(spec, model))


def _sliced_draw_blocks(
    spec: NoiseSpec, weight_draws: np.ndarray, model: Module
) -> List[np.ndarray]:
    """Slice a pre-generated ``(trials, total_draws)`` slab into per-layer blocks.

    Each trial's row is consumed in per-trial stream order (per weighted
    layer, in layer order), so the blocks hold exactly the draws a trial's
    own generator would have produced for each layer.
    """
    counts = _weight_draw_counts(spec, model)
    if sum(counts) != weight_draws.shape[1]:
        raise ValueError(
            f"weight draw slab has {weight_draws.shape[1]} columns, spec "
            f"layout needs {sum(counts)}"
        )
    blocks: List[np.ndarray] = []
    offset = 0
    for count in counts:
        blocks.append(weight_draws[:, offset : offset + count])
        offset += count
    return blocks


def _forward_trial_group(
    model: Module,
    x: np.ndarray,
    spec: NoiseSpec,
    rngs: Optional[Sequence[np.random.Generator]],
    in_bits: int,
    w_bits: int,
    out_bits: int,
    weight_draws: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One batched noisy forward for trials sharing resolved DAC/ADC bits.

    ``weight_draws``, when given, is this group's pre-generated
    ``(trials, total_draws)`` standard-normal slab: the weight noise is then
    computed from the slab's per-layer slices, and ``rngs`` is never consumed.
    Without it, each model draws from the per-trial streams in ``rngs``.
    """
    dtype = compute_dtype()
    with stage("quantize"):
        xq = quantize_uniform(x, in_bits)
    xq = _match_dtype(xq, dtype)
    fused: Optional[List[np.ndarray]] = None
    if weight_draws is not None:
        trials = int(weight_draws.shape[0])
        weight_draws = _match_dtype(weight_draws, dtype)
        fused = _sliced_draw_blocks(spec, weight_draws, model)
    else:
        assert rngs is not None
        trials = len(rngs)
    batch = np.broadcast_to(xq, (trials,) + xq.shape)
    weighted_index = 0
    for layer in _forward_layers(model):
        weight = getattr(layer, "weight", None)
        if weight is None:
            with stage("forward"):
                batch = layer.forward_batch(batch)
            continue
        base = layer.effective_weight() if hasattr(layer, "effective_weight") else weight
        base = _match_dtype(base, dtype)
        with stage("forward"):
            if fused is not None:
                block = fused[weighted_index]
                stacked = np.broadcast_to(base, (trials,) + base.shape)
                perturbed = spec.apply_weight_noise(stacked, block)
            else:
                perturbed = spec.perturb_weights_batch(base, rngs)
        weighted_index += 1
        mask = getattr(layer, "pruning_mask", None)
        if mask is not None:
            # Pruned devices are powered off: they stay exactly zero under noise.
            perturbed = np.where(mask, perturbed, 0.0)
        with stage("quantize"):
            perturbed = quantize_uniform_batch(perturbed, w_bits)
        with stage("forward"):
            batch = layer.forward_batch(batch, weight=perturbed)
            batch = spec.perturb_activations_batch(batch, rngs)
        with stage("quantize"):
            batch = quantize_uniform_batch(batch, out_bits)
    return _as_float(batch)


def _group_trials_by_bits(
    effective: Sequence[Optional[float]],
    input_bits: int,
    weight_bits: int,
    output_bits: int,
) -> Dict[Tuple[int, int, int], List[int]]:
    """Trial indices grouped by resolved ``(input, weight, output)`` bits.

    :func:`~repro.onn.quantize.receiver_limited_bits` reads a finite
    ``effective_bits`` only through its floor (``None`` and infinities mean
    the nominal grid), so the tuple is resolved once per distinct floor
    rather than three times per trial.  Groups are ordered by their first
    trial; a NaN still raises ``ValueError``.
    """
    by_floor: Dict[Optional[int], Tuple[int, int, int]] = {}
    groups: Dict[Tuple[int, int, int], List[int]] = {}
    for idx, eff in enumerate(effective):
        if eff is None or math.isinf(eff):
            floor: Optional[int] = None
        elif math.isnan(eff):
            raise ValueError("effective_bits must not be NaN")
        else:
            floor = math.floor(eff)
        resolved = by_floor.get(floor)
        if resolved is None:
            resolved = by_floor[floor] = (
                receiver_limited_bits(input_bits, eff),
                receiver_limited_bits(weight_bits, eff),
                receiver_limited_bits(output_bits, eff),
            )
        groups.setdefault(resolved, []).append(idx)
    return groups


def noisy_forward_batch(
    model: Module,
    x: np.ndarray,
    spec: NoiseSpec,
    rngs: Optional[Sequence[np.random.Generator]],
    input_bits: int = 8,
    weight_bits: int = 8,
    output_bits: int = 8,
    effective_bits: Optional[Sequence[Optional[float]]] = None,
    weight_draws: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Trial-batched :func:`noisy_forward`: one stacked forward per layer.

    ``rngs[i]`` is trial ``i``'s random stream (typically
    :func:`~repro.variation.sampler.trial_rng`), consumed in exactly the order
    the serial path would: per weighted layer, in layer order.  A caller that
    draws the per-trial link loss first (as :func:`run_monte_carlo` does) keeps
    the streams bit-identical to the per-trial loop.

    ``weight_draws`` is the pre-drawn alternative (what
    :func:`~repro.variation.montecarlo.run_monte_carlo` passes for every
    built-in spec): a ``(trials, total_draws)`` standard-normal slab whose row ``i``
    is trial ``i``'s fused weight block.  It requires a spec with a
    statically known draw layout (:meth:`NoiseSpec.supports_fused_sampling`);
    ``rngs`` may then be ``None``.

    ``effective_bits`` gives each trial's link-limited resolution; trials are
    grouped by their *resolved* ``(input, weight, output)`` bit tuple -- the
    quantization grids are integers, so drifted trials collapse into a handful
    of groups -- and each group runs one batched forward.  Returns a
    ``(trials, *output_shape)`` stack, in trial order.
    """
    if rngs is not None:
        trials = len(rngs)
    elif weight_draws is not None:
        trials = int(weight_draws.shape[0])
    else:
        raise ValueError("noisy_forward_batch needs rngs or a weight_draws slab")
    if weight_draws is not None:
        if not spec.supports_fused_sampling():
            raise ValueError(
                "weight_draws requires a spec with a statically known draw "
                "layout (supports_fused_sampling)"
            )
        if weight_draws.shape[0] != trials:
            raise ValueError(
                f"weight_draws has {weight_draws.shape[0]} rows for {trials} trials"
            )
    if trials < 1:
        raise ValueError("noisy_forward_batch needs at least one trial")
    x = _as_float(x)
    if effective_bits is None:
        effective = [None] * trials
    else:
        effective = list(effective_bits)
        if len(effective) != trials:
            raise ValueError(
                f"effective_bits has {len(effective)} entries for {trials} trials"
            )
    groups = _group_trials_by_bits(effective, input_bits, weight_bits, output_bits)
    outputs: Optional[np.ndarray] = None
    for (in_bits, w_bits, out_bits), indices in groups.items():
        group = _forward_trial_group(
            model,
            x,
            spec,
            None if rngs is None else [rngs[i] for i in indices],
            in_bits,
            w_bits,
            out_bits,
            weight_draws=None if weight_draws is None else weight_draws[indices],
        )
        if outputs is None:
            outputs = np.empty((trials,) + group.shape[1:], dtype=float)
        outputs[indices] = group
    assert outputs is not None
    return outputs


def reference_forward(
    model: Module,
    x: np.ndarray,
    input_bits: int = 8,
    weight_bits: int = 8,
    output_bits: int = 8,
    effective_bits: Optional[float] = None,
) -> np.ndarray:
    """The noise-free hardware baseline: quantized forward, no variation."""
    return noisy_forward(
        model,
        x,
        IDEAL,
        input_bits=input_bits,
        weight_bits=weight_bits,
        output_bits=output_bits,
        effective_bits=effective_bits,
    )


def classification_agreement(outputs: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of samples whose argmax matches the reference argmax."""
    outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    if outputs.shape != reference.shape:
        raise ValueError(
            f"output shape {outputs.shape} does not match reference {reference.shape}"
        )
    return float(np.mean(outputs.argmax(axis=-1) == reference.argmax(axis=-1)))


def output_rmse(outputs: np.ndarray, reference: np.ndarray) -> float:
    """Root-mean-square deviation of the noisy outputs from the reference."""
    outputs = np.asarray(outputs, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.sqrt(np.mean((outputs - reference) ** 2)))


def classification_agreement_batch(
    outputs: np.ndarray, reference: np.ndarray
) -> np.ndarray:
    """Per-trial :func:`classification_agreement` over a ``(trials, ...)`` stack.

    One batched argmax/compare replaces the per-trial metric loop; each trial's
    value is the same sample count ratio the scalar function returns.  Float
    inputs are used in place (no float64 round-trip copies on the hot path).
    """
    outputs = _as_float(outputs)
    reference = _as_float(reference)
    if outputs.shape[1:] != reference.shape:
        raise ValueError(
            f"output shape {outputs.shape[1:]} does not match reference "
            f"{reference.shape}"
        )
    trials = outputs.shape[0]
    reference = np.atleast_2d(reference)
    stacked = outputs.reshape((trials,) + reference.shape)
    matches = stacked.argmax(axis=-1) == reference.argmax(axis=-1)
    return matches.mean(axis=-1)


def output_rmse_batch(outputs: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-trial :func:`output_rmse` over a ``(trials, ...)`` stack."""
    outputs = _as_float(outputs)
    reference = _as_float(reference)
    deltas = (outputs - reference) ** 2
    return np.sqrt(deltas.mean(axis=tuple(range(1, deltas.ndim))))


@dataclass(frozen=True)
class AccuracyReport:
    """Aggregated Monte Carlo accuracy under a noise spec.

    ``accuracy_*`` statistics are over the per-trial classification agreement
    with the noise-free quantized reference; ``effective_bits_nominal`` is the
    receiver precision at the spec's deterministic (static) link penalty, and
    ``effective_bits_mean`` averages the per-trial drifted values.  All fields
    are finite by construction (degenerate links floor at 1 resolved bit), so
    reports are safe to feed to :func:`repro.explore.dse.pareto_front`.
    """

    trials: int
    seed: int
    accuracy_mean: float
    accuracy_std: float
    accuracy_min: float
    accuracy_max: float
    rmse_mean: float
    rmse_max: float
    effective_bits_nominal: float
    effective_bits_mean: float
    accuracies: Tuple[float, ...] = ()

    @property
    def error_rate(self) -> float:
        """The minimize-me complement of the mean accuracy (a DSE objective)."""
        return 1.0 - self.accuracy_mean


def aggregate_trials(
    accuracies: np.ndarray,
    rmses: np.ndarray,
    effective_bits: np.ndarray,
    seed: int,
    effective_bits_nominal: float,
) -> AccuracyReport:
    """Fold per-trial arrays (in trial order) into an :class:`AccuracyReport`.

    Summed in floating point, the mean of a constant array can land one ulp
    outside it (``np.full(64, 47 / 48).mean() > 47 / 48``), so every mean is
    clamped into its array's ``[min, max]`` and a constant accuracy array
    reports a spread of exactly zero.
    """
    if not accuracies.size:
        raise ValueError("cannot aggregate zero Monte Carlo trials")
    accuracy_min = float(accuracies.min())
    accuracy_max = float(accuracies.max())
    return AccuracyReport(
        trials=accuracies.size,
        seed=seed,
        accuracy_mean=_bounded_mean(accuracies),
        accuracy_std=0.0 if accuracy_min == accuracy_max else float(accuracies.std()),
        accuracy_min=accuracy_min,
        accuracy_max=accuracy_max,
        rmse_mean=_bounded_mean(rmses),
        rmse_max=float(rmses.max()),
        effective_bits_nominal=float(effective_bits_nominal),
        effective_bits_mean=_bounded_mean(effective_bits),
        accuracies=tuple(accuracies.tolist()),
    )


def _bounded_mean(values: np.ndarray) -> float:
    """``values.mean()``, clamped into ``[values.min(), values.max()]``."""
    return float(np.clip(values.mean(), values.min(), values.max()))
