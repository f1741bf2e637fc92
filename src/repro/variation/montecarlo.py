"""Monte Carlo orchestration: independent trials in fixed in-process chunks.

One :class:`AccuracyRequest` describes an entire study -- the model, the
evaluation inputs, the :class:`~repro.variation.models.NoiseSpec`, the trial
count and the scenario seed.  :func:`run_monte_carlo` computes the noise-free
reference once, runs the trials in contiguous chunks of at most
:data:`_TRIAL_CHUNK_CAP` as stacked forwards, and folds the per-trial results
in trial order into an :class:`~repro.variation.accuracy.AccuracyReport`.
A study always runs in the calling process: parallelism pays one level up,
where design-point groups (the explorer) or whole scenarios (the batch runner)
go to workers and each runs its studies in place.

:func:`evaluate_accuracy` is the one-call entry point: it routes the request
through :meth:`repro.core.engine.EvaluationEngine.run_accuracy`, whose
``receiver_precision`` and ``mc_accuracy`` passes memoize the link-derived
effective bits and the whole Monte Carlo study on the engine cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.cache import digest, memoized_fingerprint
from repro.core.snr import SNRAnalyzer, SNRReport
from repro.onn.layers import (
    Module,
    compute_dtype,
    dtype_mode,
    pinned_modes,
    scratch_workspace,
)
from repro.variation.accuracy import (
    AccuracyReport,
    TrialResult,
    _weighted_layer_sizes,
    aggregate_trials,
    classification_agreement_batch,
    model_fingerprint,
    noisy_forward_batch,
    output_rmse_batch,
    reference_forward,
)
from repro.variation.models import NoiseSpec
from repro.variation.sampler import make_trial_rng, philox_fused_normals
from repro.variation.sampler import rng_mode as active_rng_mode
from repro.variation.stages import stage


#: Upper bound on trials per batched chunk: large enough to amortize the
#: per-chunk Python overhead, small enough that a chunk's stacked activations
#: (trials x samples x features doubles) stay within typical L2 working sets.
_TRIAL_CHUNK_CAP = 64


@dataclass(frozen=True)
class LinkOperatingPoint:
    """The receiver-facing summary of a link budget.

    Carries exactly what per-trial SNR re-evaluation needs -- the per-channel
    laser optical power, the nominal critical-path insertion loss, the receiver
    bandwidth and the receiver-chain noise model -- so trials can price extra
    drift loss without holding the whole architecture.  The
    ``analyzer`` is the same one the engine's ``receiver_precision`` pass uses
    (``None`` means the default receiver), so nominal and per-trial effective
    bits come from one noise model.
    """

    optical_power_mw: float
    insertion_loss_db: float
    bandwidth_ghz: float
    analyzer: Optional[SNRAnalyzer] = None

    def snr(self, extra_loss_db: float = 0.0) -> SNRReport:
        received_mw = self.optical_power_mw * 10.0 ** (
            -(self.insertion_loss_db + extra_loss_db) / 10.0
        )
        analyzer = self.analyzer if self.analyzer is not None else SNRAnalyzer()
        return analyzer.analyze_received_power(received_mw, self.bandwidth_ghz)

    def effective_bits(self, extra_loss_db: float = 0.0) -> float:
        return self.snr(extra_loss_db).effective_bits

    def effective_bits_batch(self, extra_loss_db: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`effective_bits` over an array of drift losses.

        One numpy pass instead of a Python SNR evaluation per trial; used by
        the throughput Monte Carlo paths (the reference path keeps the scalar
        call so committed tables stay byte-stable).
        """
        losses = np.asarray(extra_loss_db, dtype=float)
        received_mw = self.optical_power_mw * 10.0 ** (
            -(self.insertion_loss_db + losses) / 10.0
        )
        analyzer = self.analyzer if self.analyzer is not None else SNRAnalyzer()
        return analyzer.effective_bits_for_power(received_mw, self.bandwidth_ghz)


@dataclass(frozen=True)
class AccuracyRequest:
    """A complete Monte Carlo accuracy study over one model and noise spec."""

    model: Module
    inputs: np.ndarray
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    trials: int = 32
    seed: int = 0
    #: What the noisy outputs are scored against: ``"quantized"`` (the
    #: noise-free forward on the same receiver-limited DAC/ADC grid -- isolates
    #: what *variation* costs) or ``"float"`` (the full-precision digital
    #: model -- measures quantization and variation together, the right
    #: baseline for precision sweeps).
    reference: str = "quantized"
    # Exists only for perfbench's McRobustness (backend="serial"); leaves when
    # `repro bench` folds into perfbench (ROADMAP item B).
    backend: Optional[str] = None
    jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.reference not in ("quantized", "float"):
            raise ValueError(
                f"reference must be 'quantized' or 'float', got {self.reference!r}"
            )
        if self.backend not in (None, "serial"):
            raise ValueError(
                "Monte Carlo studies run in process: backend must be None or "
                f"'serial', got {self.backend!r}"
            )
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=float))

    def fingerprint(self) -> str:
        """Content address of the study (model + inputs + noise + trials + seed).

        Memoized on the request instance: the model digest is itself cached per
        model object, and hashing the inputs tensor once per request (instead
        of once per engine pass) keeps repeated evaluations off the hashing
        hot path.  Requests are treated as immutable once handed out.
        """
        return memoized_fingerprint(
            self,
            lambda: digest(
                "accuracy-request",
                model_fingerprint(self.model),
                self.inputs,
                self.noise,
                self.trials,
                self.seed,
                self.reference,
            ),
        )


@dataclass(frozen=True)
class _TrialContext:
    """The study invariants every trial chunk reads."""

    model: Module
    inputs: np.ndarray
    reference: np.ndarray
    spec: NoiseSpec
    input_bits: int
    weight_bits: int
    output_bits: int
    seed: int
    link: Optional[LinkOperatingPoint]
    #: The RNG mode the study resolved when it started.
    rng_mode: str = "seedseq"
    #: The compute-precision mode, resolved when the study started and pinned
    #: around each chunk via :func:`repro.onn.layers.pinned_modes`, so
    #: flipping ``REPRO_DTYPE`` mid-study cannot change results.
    dtype_mode: str = "float64"


def _run_trial_chunk(shared: _TrialContext, trials: List[int]) -> List[TrialResult]:
    """A contiguous chunk of trials as one batched forward.

    Each trial's RNG is rebuilt from ``(seed, trial index)`` and consumed in
    the per-trial order (link loss first, then per-layer weight noise), so
    every trial's random draws are bit-identical to a one-trial-at-a-time
    :func:`~repro.variation.accuracy.noisy_forward` study no matter how the
    trial axis was chunked.  The forwards themselves run stacked -- one
    batched numpy pass per layer per resolved-bits group instead of
    ``len(trials)`` full model clones.
    """
    with pinned_modes(shared.dtype_mode):
        with stage("rng"):
            rngs = [
                make_trial_rng(shared.seed, trial, shared.rng_mode) for trial in trials
            ]
            losses = [shared.spec.sample_loss_db(rng) for rng in rngs]
        effective = _effective_bits_for(shared, losses)
        with scratch_workspace():
            outputs = noisy_forward_batch(
                shared.model,
                shared.inputs,
                shared.spec,
                rngs,
                input_bits=shared.input_bits,
                weight_bits=shared.weight_bits,
                output_bits=shared.output_bits,
                effective_bits=effective,
            )
        return _trial_results(shared, trials, outputs, effective, losses)


def _trial_results(
    shared: _TrialContext,
    trials: Sequence[int],
    outputs: np.ndarray,
    effective: Sequence[float],
    losses: Sequence[float],
) -> List[TrialResult]:
    """Score a chunk's stacked outputs against the reference, one record per trial."""
    with stage("metrics"):
        accuracies = classification_agreement_batch(outputs, shared.reference)
        rmses = output_rmse_batch(outputs, shared.reference)
        return [
            TrialResult(
                trial=trial,
                accuracy=float(accuracies[i]),
                rmse=float(rmses[i]),
                effective_bits=float(effective[i]),
                extra_loss_db=float(losses[i]),
            )
            for i, trial in enumerate(trials)
        ]


def _effective_bits_for(
    shared: _TrialContext, losses: Sequence[float]
) -> List[float]:
    """Per-trial receiver precision for the chunk's sampled link penalties.

    Distinct loss values map to distinct SNR evaluations; drift-free specs
    collapse every trial onto one memoized receiver computation.
    """
    if shared.link is None:
        return [math.inf] * len(losses)
    by_loss: dict = {}
    effective = []
    for loss in losses:
        bits = by_loss.get(loss)
        if bits is None:
            bits = by_loss[loss] = shared.link.effective_bits(loss)
        effective.append(bits)
    return effective


def _run_philox_chunk(
    shared: _TrialContext, trials: List[int], draws: np.ndarray
) -> List[TrialResult]:
    """A chunk of trials driven by pre-generated counter-based draws.

    ``draws`` holds each trial's row of the study-wide Philox slab: the
    leading ``loss_draw_count`` columns are the link-loss draws, the rest the
    fused weight-noise block.  No per-trial generator is ever constructed --
    the whole chunk consumes numpy slices of one matrix, which is what makes
    this mode's RNG cost nearly independent of the trial count.
    """
    with pinned_modes(shared.dtype_mode):
        loss_columns = shared.spec.loss_draw_count()
        with stage("rng"):
            loss_array = shared.spec.sample_loss_db_batch(draws[:, :loss_columns])
        losses = [float(v) for v in loss_array]
        if shared.link is None:
            effective: List[float] = [math.inf] * len(trials)
        else:
            effective = [float(v) for v in shared.link.effective_bits_batch(loss_array)]
        with scratch_workspace():
            outputs = noisy_forward_batch(
                shared.model,
                shared.inputs,
                shared.spec,
                rngs=None,
                input_bits=shared.input_bits,
                weight_bits=shared.weight_bits,
                output_bits=shared.output_bits,
                effective_bits=effective,
                weight_draws=draws[:, loss_columns:],
            )
        return _trial_results(shared, trials, outputs, effective, losses)


def run_monte_carlo(
    request: AccuracyRequest,
    input_bits: int = 8,
    weight_bits: int = 8,
    output_bits: int = 8,
    link: Optional[LinkOperatingPoint] = None,
    nominal_snr: Optional[SNRReport] = None,
) -> AccuracyReport:
    """Execute the study in this process and return the aggregated report.

    The reference (noise-free, quantized at the *static* link penalty) is
    computed once; the trials then run in contiguous chunks and are
    aggregated in trial order.  When the caller already holds the receiver's
    nominal :class:`SNRReport` (the engine's memoized ``receiver_precision``
    pass), passing it as ``nominal_snr`` skips re-deriving it from the link.
    """
    static_loss_db = request.noise.static_loss_db()
    if nominal_snr is not None:
        nominal_bits = nominal_snr.effective_bits
    elif link is not None:
        nominal_bits = link.effective_bits(static_loss_db)
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
    mode = active_rng_mode()
    shared = _TrialContext(
        model=request.model,
        inputs=request.inputs,
        reference=reference,
        spec=request.noise,
        input_bits=input_bits,
        weight_bits=weight_bits,
        output_bits=output_bits,
        seed=request.seed,
        link=link,
        rng_mode=mode,
        dtype_mode=dtype_mode(),
    )
    slab = None
    if mode == "philox" and request.noise.supports_fused_sampling():
        # Counter-based fast path: generate the whole study's draws as one
        # (trials, loss + weight draws) Philox call, then hand each chunk its
        # contiguous row slice.  Trial i's draws are row i whatever the
        # chunking.
        draws = request.noise.loss_draw_count() + sum(
            request.noise.weight_draw_count(size)
            for size in _weighted_layer_sizes(request.model)
        )
        with stage("rng"):
            slab = philox_fused_normals(
                request.seed, request.trials, draws, dtype=compute_dtype().type
            )
    # Contiguous chunks of at most _TRIAL_CHUNK_CAP trials keep the stacked
    # per-layer temporaries cache-resident; per-trial seeds (or slab rows)
    # make the results chunking-invariant anyway.
    results: List[TrialResult] = []
    for start in range(0, request.trials, _TRIAL_CHUNK_CAP):
        stop = min(start + _TRIAL_CHUNK_CAP, request.trials)
        trials = list(range(start, stop))
        if slab is None:
            results += _run_trial_chunk(shared, trials)
        else:
            results += _run_philox_chunk(shared, trials, slab[start:stop])
    return aggregate_trials(
        tuple(results),
        seed=request.seed,
        effective_bits_nominal=float(nominal_bits),
    )


def evaluate_accuracy(
    arch,
    request: AccuracyRequest,
    config=None,
    cache=None,
) -> AccuracyReport:
    """Monte Carlo accuracy of ``request`` on ``arch``, through the engine passes.

    Convenience wrapper constructing a fresh
    :class:`~repro.core.engine.EvaluationEngine` (sharing ``cache`` when given)
    and running its accuracy pipeline, so the link budget, receiver precision
    and the whole study are memoized like any other engine pass.
    """
    from repro.core.engine import EvaluationEngine

    engine = EvaluationEngine(arch, config, cache=cache)
    return engine.run_accuracy(request)
