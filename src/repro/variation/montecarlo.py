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

A spec whose noise models all have a statically known draw layout (every
built-in model) draws its random numbers as one ``(trials, draws)``
standard-normal slab (:func:`draw_slab`) whose row ``i`` is trial ``i``'s
own stream; each chunk reads its rows.  The slab is a pure function of
:func:`draw_slab_key`, so the engine memoizes it per request and a
noise-magnitude or precision sweep at a fixed seed draws its normals once.  Only custom noise models fall back
to per-trial generators.

A spec with zero spread (:meth:`NoiseSpec.is_deterministic`) perturbs every
trial identically, so its study runs trial 0 alone -- on row 0 of the same
slab -- and reports that trial for all of them.  Each trial's drifted link
is priced by one scalar loop (:meth:`SNRAnalyzer.effective_bits_for_power`),
and per-trial results stay numpy arrays from the chunk to the report.

:func:`evaluate_accuracy` is the one-call entry point: it routes the request
through :meth:`repro.core.engine.EvaluationEngine.run_accuracy`, whose
``receiver_precision`` and ``mc_accuracy`` passes memoize the link-derived
effective bits and the whole Monte Carlo study on the engine cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import digest, memoized_fingerprint
from repro.core.snr import SNRAnalyzer, SNRReport
from repro.onn.layers import Module, dtype_mode, pinned_modes, scratch_workspace
from repro.variation.accuracy import (
    AccuracyReport,
    aggregate_trials,
    classification_agreement_batch,
    fused_draw_count,
    model_fingerprint,
    noisy_forward_batch,
    output_rmse_batch,
    reference_forward,
)
from repro.variation.models import NoiseSpec
from repro.variation.sampler import seedseq_fused_normals, trial_rng
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

    def received_power_mw(self, extra_loss_db: float = 0.0) -> float:
        """Optical power at the detector with ``extra_loss_db`` of drift."""
        return self.optical_power_mw * 10.0 ** (
            -(self.insertion_loss_db + extra_loss_db) / 10.0
        )

    def receiver(self) -> SNRAnalyzer:
        """The receiver-chain noise model (the default receiver if unset)."""
        return self.analyzer if self.analyzer is not None else SNRAnalyzer()

    def snr(self, extra_loss_db: float = 0.0) -> SNRReport:
        return self.receiver().analyze_received_power(
            self.received_power_mw(extra_loss_db), self.bandwidth_ghz
        )

    def effective_bits(self, extra_loss_db: float = 0.0) -> float:
        return self.snr(extra_loss_db).effective_bits


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
    #: The compute-precision mode, resolved when the study started and pinned
    #: around each chunk via :func:`repro.onn.layers.pinned_modes`, so
    #: flipping ``REPRO_DTYPE`` mid-study cannot change results.
    dtype_mode: str = "float64"


def _run_trial_chunk(
    shared: _TrialContext, trials: List[int], draws: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A contiguous chunk of trials as one batched forward.

    ``draws`` holds the chunk's rows of the study's draw slab: the leading
    ``loss_draw_count`` columns are the link-loss draws, the rest the fused
    weight-noise block.  Each row is the trial's own stream, so results are
    bit-identical to a one-trial-at-a-time study however the trial axis was
    chunked.  ``None`` (what a spec outside the fused layout gets) rebuilds each
    trial's generator from ``(seed, trial index)`` and consumes it in
    per-trial order: link loss first, then per-layer weight noise.  The
    forwards run stacked -- one batched numpy pass per layer per
    resolved-bits group instead of ``len(trials)`` full model clones.
    Returns the per-trial ``(accuracies, rmses, effective_bits)`` arrays.
    """
    spec = shared.spec
    with pinned_modes(shared.dtype_mode):
        rngs = weight_draws = None
        with stage("rng"):
            if draws is None:
                rngs = [trial_rng(shared.seed, trial) for trial in trials]
                losses = [spec.sample_loss_db(rng) for rng in rngs]
            else:
                loss_columns = spec.loss_draw_count()
                losses = spec.sample_loss_db_batch(draws[:, :loss_columns]).tolist()
                weight_draws = draws[:, loss_columns:]
        effective = _effective_bits_for(shared, losses)
        with scratch_workspace():
            outputs = noisy_forward_batch(
                shared.model,
                shared.inputs,
                spec,
                rngs,
                input_bits=shared.input_bits,
                weight_bits=shared.weight_bits,
                output_bits=shared.output_bits,
                effective_bits=effective,
                weight_draws=weight_draws,
            )
        with stage("metrics"):
            return (
                classification_agreement_batch(outputs, shared.reference),
                output_rmse_batch(outputs, shared.reference),
                np.array(effective, dtype=float),
            )


def _effective_bits_for(
    shared: _TrialContext, losses: Sequence[float]
) -> List[float]:
    """Per-trial receiver precision for the chunk's sampled link penalties.

    One scalar pricing pass:
    :meth:`SNRAnalyzer.effective_bits_for_power` equals
    :meth:`LinkOperatingPoint.effective_bits` bit for bit, without building
    a report per trial.
    """
    link = shared.link
    if link is None:
        return [math.inf] * len(losses)
    return link.receiver().effective_bits_for_power(
        [link.received_power_mw(loss) for loss in losses], link.bandwidth_ghz
    )


def draw_slab_key(request: AccuracyRequest) -> Optional[Tuple[int, int, int]]:
    """What a study's draw slab is a pure function of.

    ``(seed, trials, draws per trial)`` -- nothing about noise magnitudes,
    weights, inputs or the compute-precision mode, so every study of a sweep
    with the same seed, trial count and draw layout shares one slab.
    ``None`` when the spec has no fused draw layout.
    """
    draws = fused_draw_count(request.noise, request.model)
    if draws is None:
        return None
    return (request.seed, request.trials, draws)


def draw_slab(key: Tuple[int, int, int]) -> np.ndarray:
    """The read-only float64 ``(trials, draws)`` standard-normal slab for ``key``.

    A float32 study casts its rows where the forward reads them, so the
    slab's bytes do not depend on the dtype mode.
    """
    with stage("rng"):
        return seedseq_fused_normals(*key)


def run_monte_carlo(
    request: AccuracyRequest,
    input_bits: int = 8,
    weight_bits: int = 8,
    output_bits: int = 8,
    link: Optional[LinkOperatingPoint] = None,
    nominal_snr: Optional[SNRReport] = None,
    draws: Optional[np.ndarray] = None,
) -> AccuracyReport:
    """Execute the study in this process and return the aggregated report.

    The reference (noise-free, quantized at the *static* link penalty) is
    computed once; the trials then run in contiguous chunks and are
    aggregated in trial order.  A deterministic spec
    (:meth:`NoiseSpec.is_deterministic`) runs trial 0 alone and reports it
    for every trial.  When the caller already holds the receiver's
    nominal :class:`SNRReport` (the engine's memoized ``receiver_precision``
    pass), passing it as ``nominal_snr`` skips re-deriving it from the link.
    ``draws`` is the study's :func:`draw_slab` when the caller memoizes it
    (the engine's ``mc_draws`` entry); left ``None``, it is drawn here.
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
        dtype_mode=dtype_mode(),
    )
    key = draw_slab_key(request)
    if key is None:
        draws = None
    elif draws is None:
        draws = draw_slab(key)
    elif draws.shape != key[1:]:
        raise ValueError(
            f"draw slab has shape {draws.shape}, the study needs {key[1:]}"
        )
    # A zero-spread spec perturbs every trial identically: trial 0, run
    # through the same slab path, stands for the whole study.
    computed = 1 if request.noise.is_deterministic() else request.trials
    # Contiguous chunks of at most _TRIAL_CHUNK_CAP trials keep the stacked
    # per-layer temporaries cache-resident; slab rows (or per-trial seeds)
    # make the results chunking-invariant anyway.
    accuracies = np.empty(request.trials)
    rmses = np.empty(request.trials)
    effective = np.empty(request.trials)
    for start in range(0, computed, _TRIAL_CHUNK_CAP):
        stop = min(start + _TRIAL_CHUNK_CAP, computed)
        rows = None if draws is None else draws[start:stop]
        (
            accuracies[start:stop],
            rmses[start:stop],
            effective[start:stop],
        ) = _run_trial_chunk(shared, list(range(start, stop)), rows)
    if computed == 1:
        for values in (accuracies, rmses, effective):
            values[1:] = values[0]
    return aggregate_trials(
        accuracies,
        rmses,
        effective,
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
