"""Composable device-variation and noise models.

Each model is a small frozen dataclass describing one hardware non-ideality and
how it perturbs an ONN inference:

- :class:`WeightEncodingError` -- stochastic error on the weight-encoding DACs /
  phase-shifter drivers (relative or absolute Gaussian on the weight values);
- :class:`PhaseError` -- phase-programming noise on interferometric meshes,
  modeled as the amplitude penalty ``cos(dphi)`` of a misaligned phase;
- :class:`Crosstalk` -- deterministic inter-channel leakage: every output lane
  receives a ``coupling`` fraction of the average of its sibling lanes;
- :class:`LinkLossDrift` -- insertion-loss / thermal drift on the optical link
  budget: a deterministic ``mean_db`` penalty (thermal operating-point shift)
  plus a per-trial Gaussian ``sigma_db`` drift.  This is the model that couples
  variation to the receiver: extra loss lowers the received power, which lowers
  the SNR-derived effective bits, which coarsens the DAC/ADC grid the link can
  actually resolve.

A :class:`NoiseSpec` composes any number of models.  Specs are pure data
(frozen dataclasses of floats), so they are picklable for process-backend
fan-out and canonically fingerprintable for the engine's memoized passes, and
``scaled(factor)`` produces the magnitude sweeps robustness studies need.

All stochastic perturbations draw from the ``numpy.random.Generator`` handed in
by the caller; models never hold RNG state, which is what keeps Monte Carlo
trials bit-identical across execution backends (see
:mod:`repro.variation.sampler`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class VariationModel:
    """Base class: a no-op non-ideality.  Subclasses override what they affect."""

    def perturb_weights(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return weights

    def perturb_activations(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return x

    def perturb_weights_batch(
        self, weights: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Perturb a ``(trials, *shape)`` weight stack, one RNG per trial.

        Trial ``i``'s perturbation draws exclusively from ``rngs[i]`` in the
        same order as :meth:`perturb_weights` would -- the batched path
        consumes each per-trial stream bit-identically to the serial loop.
        The base implementation applies the serial method per slice (so any
        custom model is batch-safe); stochastic built-ins override it with one
        vectorized arithmetic pass over the stacked draws.
        """
        slices = [weights[i] for i in range(len(rngs))]
        outs = [self.perturb_weights(s, rng) for s, rng in zip(slices, rngs)]
        if all(out is s for out, s in zip(outs, slices)):
            return weights  # no-op model: keep the (possibly broadcast) stack
        return np.stack(outs)

    def perturb_activations_batch(
        self, x: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Perturb a ``(trials, ...)`` activation stack, one RNG per trial."""
        slices = [x[i] for i in range(len(rngs))]
        outs = [self.perturb_activations(s, rng) for s, rng in zip(slices, rngs)]
        if all(out is s for out, s in zip(outs, slices)):
            return x
        return np.stack(outs)

    def weight_draw_count(self, size: int) -> int:
        """Standard-normal draws :meth:`perturb_weights` consumes for ``size``
        weight elements (0 for deterministic models).  Only consulted on the
        fused-sampling fast path, which is restricted to the built-in model
        types -- custom subclasses always take the per-model batch path."""
        return 0

    def apply_weight_noise(self, weights: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Apply this model's perturbation given pre-drawn standard normals.

        ``weights`` is a ``(trials, *shape)`` stack and ``z`` a ``(trials,
        weight_draw_count)`` slice of each trial's fused standard-normal block;
        the arithmetic must reproduce :meth:`perturb_weights` bit for bit
        (``rng.normal(0, sigma, n)`` equals ``sigma * standard_normal(n)`` on
        the same stream position).
        """
        return weights

    def static_loss_db(self) -> float:
        """Deterministic extra insertion loss (dB) this model adds to the link."""
        return 0.0

    def sample_loss_db(self, rng: np.random.Generator) -> float:
        """Per-trial extra insertion loss (dB); defaults to the static part."""
        return self.static_loss_db()

    def loss_draw_count(self) -> int:
        """Standard-normal draws :meth:`sample_loss_db` consumes per trial.

        Zero for deterministic models; consulted only on the fused-sampling
        fast path (built-in model types), like :meth:`weight_draw_count`.
        """
        return 0

    def loss_db_from_draws(self, z: np.ndarray) -> np.ndarray:
        """Per-trial loss (dB) from a ``(trials, loss_draw_count)`` draw block."""
        return np.full(z.shape[0], self.static_loss_db())

    def is_deterministic(self) -> bool:
        """Whether every trial sees the same perturbation (zero spread)."""
        return True

    def scaled(self, factor: float) -> "VariationModel":
        """This model with every magnitude parameter scaled by ``factor``."""
        return self


def _check_non_negative(label: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{label} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class WeightEncodingError(VariationModel):
    """Gaussian error on the encoded weight values.

    ``relative=True`` (the default) models driver/DAC gain error
    (``w * (1 + N(0, sigma))``); ``relative=False`` models an additive offset
    in weight units.
    """

    sigma: float = 0.01
    relative: bool = True

    def __post_init__(self) -> None:
        _check_non_negative("WeightEncodingError.sigma", self.sigma)

    def perturb_weights(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noise = rng.normal(0.0, self.sigma, size=weights.shape)
        if self.relative:
            return weights * (1.0 + noise)
        return weights + noise

    def perturb_weights_batch(
        self, weights: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        # Per-trial draws from each trial's own stream (the seed contract),
        # applied in one vectorized pass over the stack.
        shape = weights.shape[1:]
        noise = np.stack([rng.normal(0.0, self.sigma, size=shape) for rng in rngs])
        if self.relative:
            return weights * (1.0 + noise)
        return weights + noise

    def weight_draw_count(self, size: int) -> int:
        return size

    def is_deterministic(self) -> bool:
        return self.sigma == 0

    def apply_weight_noise(self, weights: np.ndarray, z: np.ndarray) -> np.ndarray:
        noise = self.sigma * z.reshape(weights.shape)
        if self.relative:
            return weights * (1.0 + noise)
        return weights + noise

    def scaled(self, factor: float) -> "WeightEncodingError":
        return dataclasses.replace(self, sigma=self.sigma * factor)


@dataclass(frozen=True)
class PhaseError(VariationModel):
    """Phase-programming noise on an interferometric weight: ``w * cos(dphi)``.

    A misprogrammed phase rotates part of the field out of the signal
    quadrature; the projection onto the intended quadrature shrinks by
    ``cos(dphi)``, so phase noise only ever *attenuates* the effective weight.
    """

    sigma_rad: float = 0.01

    def __post_init__(self) -> None:
        _check_non_negative("PhaseError.sigma_rad", self.sigma_rad)

    def perturb_weights(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        dphi = rng.normal(0.0, self.sigma_rad, size=weights.shape)
        return weights * np.cos(dphi)

    def perturb_weights_batch(
        self, weights: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        shape = weights.shape[1:]
        dphi = np.stack([rng.normal(0.0, self.sigma_rad, size=shape) for rng in rngs])
        return weights * np.cos(dphi)

    def weight_draw_count(self, size: int) -> int:
        return size

    def is_deterministic(self) -> bool:
        return self.sigma_rad == 0

    def apply_weight_noise(self, weights: np.ndarray, z: np.ndarray) -> np.ndarray:
        return weights * np.cos(self.sigma_rad * z.reshape(weights.shape))

    def scaled(self, factor: float) -> "PhaseError":
        return dataclasses.replace(self, sigma_rad=self.sigma_rad * factor)


@dataclass(frozen=True)
class Crosstalk(VariationModel):
    """Deterministic inter-channel leakage between the lanes of a layer output.

    Every lane keeps ``1 - coupling`` of its own value and receives ``coupling``
    times the mean of the other lanes -- the aggregate first-order effect of
    waveguide crossings and imperfect demultiplexing.  ``coupling`` is a linear
    power ratio; use :meth:`from_db` for the usual "-30 dB crosstalk" spec.
    """

    coupling: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError(
                f"Crosstalk.coupling must be in [0, 1], got {self.coupling!r}"
            )

    @classmethod
    def from_db(cls, suppression_db: float) -> "Crosstalk":
        """Crosstalk with the given suppression (e.g. ``30.0`` for -30 dB)."""
        return cls(coupling=10.0 ** (-suppression_db / 10.0))

    def perturb_activations(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.coupling == 0.0 or x.ndim == 0 or x.shape[-1] < 2:
            return x
        lanes = x.shape[-1]
        leak = (x.sum(axis=-1, keepdims=True) - x) / (lanes - 1)
        return (1.0 - self.coupling) * x + self.coupling * leak

    def perturb_activations_batch(
        self, x: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        # Deterministic and defined on the last axis, so the serial formula is
        # batch-shape-agnostic; this spelling reuses buffers (the stacks are
        # the batched path's biggest tensors) while staying bit-identical:
        # every elementwise op matches the serial expression term for term
        # (float addition is commutative, so summing c*leak into (1-c)*x
        # equals the serial (1-c)*x + c*leak).
        if self.coupling == 0.0 or x.ndim == 0 or x.shape[-1] < 2:
            return x
        lanes = x.shape[-1]
        leak = np.subtract(x.sum(axis=-1, keepdims=True), x)
        leak /= lanes - 1
        leak *= self.coupling
        out = np.multiply(x, 1.0 - self.coupling)
        out += leak
        return out

    def scaled(self, factor: float) -> "Crosstalk":
        return dataclasses.replace(self, coupling=min(1.0, self.coupling * factor))


@dataclass(frozen=True)
class LinkLossDrift(VariationModel):
    """Insertion-loss / thermal drift on the link budget.

    ``mean_db`` is the deterministic operating-point penalty (thermal drift of
    couplers and ring resonances); ``sigma_db`` adds a per-trial Gaussian
    component.  Sampled drift is floored at zero extra loss -- variation never
    makes the link *better* than its nominal budget.
    """

    mean_db: float = 0.0
    sigma_db: float = 0.0

    def __post_init__(self) -> None:
        _check_non_negative("LinkLossDrift.mean_db", self.mean_db)
        _check_non_negative("LinkLossDrift.sigma_db", self.sigma_db)

    def static_loss_db(self) -> float:
        return self.mean_db

    def sample_loss_db(self, rng: np.random.Generator) -> float:
        drift = self.mean_db + rng.normal(0.0, self.sigma_db)
        return max(0.0, drift)

    def loss_draw_count(self) -> int:
        return 1

    def is_deterministic(self) -> bool:
        return self.sigma_db == 0

    def loss_db_from_draws(self, z: np.ndarray) -> np.ndarray:
        # rng.normal(0, sigma) == sigma * standard_normal() at the same stream
        # position, so the pre-drawn form matches sample_loss_db's arithmetic.
        return np.maximum(0.0, self.mean_db + self.sigma_db * z[:, 0])

    def scaled(self, factor: float) -> "LinkLossDrift":
        return dataclasses.replace(
            self, mean_db=self.mean_db * factor, sigma_db=self.sigma_db * factor
        )


@dataclass(frozen=True)
class NoiseSpec:
    """An ordered composition of variation models.

    Model order is part of the spec: stochastic models consume the trial RNG in
    sequence, so two specs with the same models in a different order are
    (deliberately) different specs.
    """

    models: Tuple[VariationModel, ...] = ()

    def __post_init__(self) -> None:
        for model in self.models:
            if not isinstance(model, VariationModel):
                raise TypeError(
                    f"NoiseSpec models must be VariationModel instances, "
                    f"got {type(model).__name__}"
                )

    # -- composition ------------------------------------------------------------------
    def perturb_weights(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for model in self.models:
            weights = model.perturb_weights(weights, rng)
        return weights

    def perturb_activations(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for model in self.models:
            x = model.perturb_activations(x, rng)
        return x

    def perturb_weights_batch(
        self, weights: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """One perturbed weight stack per trial: ``(len(rngs), *weights.shape)``.

        ``weights`` is the *unstacked* base tensor; each model's vectorized
        batch path runs once over the whole stack, drawing trial ``i``'s noise
        from ``rngs[i]`` in model order -- exactly the stream
        :meth:`perturb_weights` would consume trial by trial.  Models that
        inherit the base (identity) weight hook are skipped outright: they
        consume no stream and touch no weights, so there is nothing to batch.
        """
        stacked = np.broadcast_to(weights, (len(rngs),) + weights.shape)
        for model in self.models:
            if type(model).perturb_weights is VariationModel.perturb_weights:
                continue
            stacked = model.perturb_weights_batch(stacked, rngs)
        return stacked

    def perturb_activations_batch(
        self, x: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Perturb a ``(trials, ...)`` activation stack, one RNG per trial."""
        for model in self.models:
            if type(model).perturb_activations is VariationModel.perturb_activations:
                continue
            x = model.perturb_activations_batch(x, rngs)
        return x

    # -- fused sampling ----------------------------------------------------------------
    def supports_fused_sampling(self) -> bool:
        """Whether every model's per-trial draw layout is statically known.

        Restricted to the *exact* built-in model types: a subclass may
        override :meth:`VariationModel.perturb_weights` without declaring its
        draw count, and silently mispositioning its stream would corrupt the
        per-trial seed contract -- unknown types always take the per-model
        batch path instead.
        """
        return all(type(model) in _FUSED_DRAW_TYPES for model in self.models)

    def is_deterministic(self) -> bool:
        """Whether every trial of a study under this spec is the same trial.

        True only for fused-sampling specs (exact built-in types: a custom
        subclass's draws are opaque) whose every model has zero spread --
        zero ``sigma``/``sigma_rad``/``sigma_db``; a ``mean_db`` penalty and
        crosstalk are deterministic.  Such a study's trials all read
        zero-scaled draws, so one trial stands for all of them.
        """
        return self.supports_fused_sampling() and all(
            model.is_deterministic() for model in self.models
        )

    def weight_draw_count(self, size: int) -> int:
        """Standard-normal draws one trial's weight perturbation consumes."""
        return sum(model.weight_draw_count(size) for model in self.models)

    def apply_weight_noise(self, weights: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Apply every model's weight perturbation from a fused draw block.

        ``weights`` is a ``(trials, *shape)`` stack and ``z`` holds each
        trial's pre-drawn standard normals for this layer, consumed in model
        order -- the same stream positions :meth:`perturb_weights` would use,
        so results are bit-identical to the sequential path.
        """
        size = int(np.prod(weights.shape[1:], dtype=int))
        offset = 0
        for model in self.models:
            count = model.weight_draw_count(size)
            if count:
                weights = model.apply_weight_noise(weights, z[:, offset : offset + count])
                offset += count
            # Zero-draw built-ins leave weights untouched by construction.
        return weights

    def static_loss_db(self) -> float:
        """Deterministic link penalty: what the *nominal* receiver already pays."""
        return sum(model.static_loss_db() for model in self.models)

    def sample_loss_db(self, rng: np.random.Generator) -> float:
        """Per-trial link penalty (always consumed before the forward pass)."""
        return sum(model.sample_loss_db(rng) for model in self.models)

    def loss_draw_count(self) -> int:
        """Standard-normal draws one trial's link-loss sampling consumes."""
        return sum(model.loss_draw_count() for model in self.models)

    def sample_loss_db_batch(self, z: np.ndarray) -> np.ndarray:
        """All trials' link penalties from a ``(trials, loss_draw_count)`` block.

        Each model consumes its slice in model order -- the same layout the
        sequential :meth:`sample_loss_db` calls would walk -- and deterministic
        models contribute their static penalty, so one vectorized pass replaces
        a Python call per (trial, model).
        """
        totals = np.zeros(z.shape[0])
        offset = 0
        for model in self.models:
            count = model.loss_draw_count()
            if count:
                totals += model.loss_db_from_draws(z[:, offset : offset + count])
                offset += count
            else:
                static = model.static_loss_db()
                if static:
                    totals += static
        return totals

    def scaled(self, factor: float) -> "NoiseSpec":
        """Every model's magnitudes scaled by ``factor`` (robustness sweeps)."""
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor!r}")
        return NoiseSpec(tuple(model.scaled(factor) for model in self.models))

    def __bool__(self) -> bool:
        return bool(self.models)


#: Model types whose per-trial stream consumption is statically known, making
#: them eligible for fused sampling (one standard-normal block per trial).
_FUSED_DRAW_TYPES = (
    VariationModel,
    WeightEncodingError,
    PhaseError,
    Crosstalk,
    LinkLossDrift,
)

#: The no-noise spec (useful as the clean hardware reference).
IDEAL = NoiseSpec()


def standard_noise(
    weight_sigma: float = 0.02,
    phase_sigma_rad: float = 0.02,
    crosstalk_db: float = 27.0,
    loss_mean_db: float = 0.5,
    loss_sigma_db: float = 0.25,
) -> NoiseSpec:
    """A representative silicon-photonics corner: encoding + phase + crosstalk + drift."""
    return NoiseSpec(
        (
            WeightEncodingError(sigma=weight_sigma),
            PhaseError(sigma_rad=phase_sigma_rad),
            Crosstalk.from_db(crosstalk_db),
            LinkLossDrift(mean_db=loss_mean_db, sigma_db=loss_sigma_db),
        )
    )
