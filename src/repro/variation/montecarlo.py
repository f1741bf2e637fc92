"""Monte Carlo orchestration: independent trials fanned over ``repro.exec``.

One :class:`AccuracyRequest` describes an entire study -- the model, the
evaluation inputs, the :class:`~repro.variation.models.NoiseSpec`, the trial
count and the scenario seed, plus (execution detail, excluded from the request
fingerprint) which execution backend runs the trials.  :func:`run_monte_carlo`
computes the noise-free reference once, ships a picklable
:class:`_TrialContext` to the backend, maps the trial indices, and folds the
per-trial results in trial order -- so serial, thread and process runs produce
bit-identical :class:`~repro.variation.accuracy.AccuracyReport` records.

:func:`evaluate_accuracy` is the one-call entry point: it routes the request
through :meth:`repro.core.engine.EvaluationEngine.run_accuracy`, whose
``receiver_precision`` and ``mc_accuracy`` passes memoize the link-derived
effective bits and the whole Monte Carlo study on the engine cache.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cache import digest, memoized_fingerprint
from repro.core.snr import SNRAnalyzer, SNRReport
from repro.exec import (
    ShmHandle,
    as_array,
    as_object,
    partition_indices,
    publish_array,
    publish_object,
    resolve_backend,
    shm_enabled,
    steal_partition,
)
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
from repro.variation.stages import (
    StageAccumulator,
    emit,
    observe_stages,
    stage,
    stages_active,
)


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
    drift loss without shipping whole architectures to worker processes.  The
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
    """A complete Monte Carlo accuracy study over one model and noise spec.

    ``backend``/``jobs`` choose how trials execute (any ``repro.exec`` spec);
    they are deliberately excluded from :meth:`fingerprint` because every
    backend produces bit-identical results -- two requests differing only in
    where they run share one cache entry.
    """

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
    backend: object = None
    jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.reference not in ("quantized", "float"):
            raise ValueError(
                f"reference must be 'quantized' or 'float', got {self.reference!r}"
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
    """Picklable task-invariant payload shipped once per worker chunk.

    Under task-shipping backends with ``REPRO_SHM=on``, the bulky fields
    (``model``, ``inputs``, ``reference``) are :class:`~repro.exec.ShmHandle`
    references to payloads published once per host instead of per-chunk
    pickled copies; workers materialize them via :func:`_materialized`
    (content-addressed, so repeated studies reuse the worker's cached
    attachment and unpickled model).
    """

    model: Union[Module, ShmHandle]
    inputs: Union[np.ndarray, ShmHandle]
    reference: Union[np.ndarray, ShmHandle]
    spec: NoiseSpec
    input_bits: int
    weight_bits: int
    output_bits: int
    seed: int
    link: Optional[LinkOperatingPoint]
    #: The RNG mode the study resolved at dispatch time.  Carried in the
    #: context (not re-read from the environment) so process-pool workers run
    #: the same mode as the parent regardless of env propagation.
    rng_mode: str = "seedseq"
    #: The compute-precision mode, resolved at dispatch time for the same
    #: reason: a process (or cluster) worker pins it around the trials via
    #: :func:`repro.onn.layers.pinned_modes`, so flipping ``REPRO_DTYPE`` after
    #: task encoding -- or running a worker under a different shell
    #: environment -- cannot change results.
    dtype_mode: str = "float64"


def _materialized(shared: _TrialContext) -> _TrialContext:
    """Resolve any shm handles in the context to live arrays/objects.

    A no-op for in-process backends (which never encode handles).  Worker-side
    resolution is cached by content digest, so every chunk of a study -- and
    every later study over the same model -- shares one attachment and one
    unpickled model per worker process.
    """
    if not (
        isinstance(shared.model, ShmHandle)
        or isinstance(shared.inputs, ShmHandle)
        or isinstance(shared.reference, ShmHandle)
    ):
        return shared
    return dataclasses.replace(
        shared,
        model=as_object(shared.model),
        inputs=as_array(shared.inputs),
        reference=as_array(shared.reference),
    )


def _shm_context(shared: _TrialContext) -> _TrialContext:
    """Publish the context's bulky fields and swap in their handles."""
    return dataclasses.replace(
        shared,
        model=publish_object(shared.model),
        inputs=publish_array(shared.inputs),
        reference=publish_array(shared.reference),
    )


@dataclass(frozen=True)
class _SlabRows:
    """A contiguous row window of the study-wide Philox slab, by construction.

    Ships the slab's *generation spec* instead of its bytes: the slab is a
    pure, memoized function of ``(seed, trials, draws, dtype)``
    (:func:`philox_fused_normals`), so a worker re-deriving it locally gets
    the identical read-only array without any transfer or content hashing --
    cheaper than shm even on the same host, and a ~100-byte task on the
    cluster wire.  The per-process memo means one generation per study per
    worker (fork-pool workers usually inherit the parent's already-warm memo).
    """

    seed: int
    trials: int
    draws: int
    dtype: str
    start: int
    stop: int

    def resolve(self) -> np.ndarray:
        slab = philox_fused_normals(
            self.seed, self.trials, self.draws, dtype=np.dtype(self.dtype).type
        )
        return slab[self.start : self.stop]


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
    shared = _materialized(shared)
    with pinned_modes(shared.dtype_mode):
        return _run_trial_chunk_pinned(shared, trials)


def _run_trial_chunk_pinned(
    shared: _TrialContext, trials: List[int]
) -> List[TrialResult]:
    with stage("rng"):
        rngs = [make_trial_rng(shared.seed, trial, shared.rng_mode) for trial in trials]
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
    shared: _TrialContext, task: Tuple[List[int], Any]
) -> List[TrialResult]:
    """A chunk of trials driven by pre-generated counter-based draws.

    ``task`` is ``(trial_indices, draws)`` where ``draws`` holds each trial's
    row of the study-wide Philox slab: the leading ``loss_draw_count`` columns
    are the link-loss draws, the rest the fused weight-noise block.  Under
    shm transport ``draws`` is a :class:`_SlabRows` window into the published
    slab instead of a pickled row copy.  No per-trial generator is ever
    constructed -- the whole chunk consumes numpy slices of one matrix, which
    is what makes this mode's RNG cost nearly independent of the trial count.
    """
    shared = _materialized(shared)
    trials, draws = task
    if isinstance(draws, _SlabRows):
        with stage("rng"):
            task = (trials, draws.resolve())
    with pinned_modes(shared.dtype_mode):
        return _run_philox_chunk_pinned(shared, task)


def _run_philox_chunk_pinned(
    shared: _TrialContext, task: Tuple[List[int], np.ndarray]
) -> List[TrialResult]:
    trials, draws = task
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


def _observed_dispatch(dispatch: Callable[[], Any]) -> Any:
    """Run a backend dispatch, attributing unexplained wall-clock to ``dispatch``.

    With stage observers registered, the compute stages (rng/forward/quantize/
    metrics) reach the parent either inline (serial/threads) or as shipped
    worker totals (processes/cluster); whatever part of the dispatch wall-clock
    those stages do *not* explain is the execution layer's own overhead --
    pool spin-up, pickling, IPC, scheduling gaps -- and is emitted as the
    ``dispatch`` stage so bench records show exactly what a backend costs.
    """
    if not stages_active():
        return dispatch()
    attributed = StageAccumulator()
    start = time.perf_counter()
    with observe_stages(attributed):
        result = dispatch()
    overhead = (time.perf_counter() - start) - sum(attributed.totals().values())
    emit("dispatch", max(0.0, overhead))
    return result


def run_monte_carlo(
    request: AccuracyRequest,
    input_bits: int = 8,
    weight_bits: int = 8,
    output_bits: int = 8,
    link: Optional[LinkOperatingPoint] = None,
    nominal_snr: Optional[SNRReport] = None,
) -> AccuracyReport:
    """Execute the study and return the aggregated report.

    The reference (noise-free, quantized at the *static* link penalty) is
    computed once in the caller; trials then fan out over the request's
    execution backend and are aggregated in trial order, which keeps the
    report bit-identical no matter which backend ran the trials.  When the
    caller already holds the receiver's nominal :class:`SNRReport` (the
    engine's memoized ``receiver_precision`` pass), passing it as
    ``nominal_snr`` skips re-deriving it from the link.
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
    # Every mode is resolved HERE, at dispatch time, and carried in the task
    # context: workers pin them around each chunk, so neither later env flips
    # in this process nor a remote worker's own environment can change what a
    # dispatched study computes.
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
    backend = resolve_backend(request.backend, request.jobs)
    if backend.ships_tasks and shm_enabled():
        # Zero-copy transport: the model/inputs/reference travel as
        # content-addressed handles; workers resolve (and cache) them once
        # per host instead of unpickling per-chunk copies.
        shared = _shm_context(shared)
    # Shard the trial axis into contiguous chunks, capped at _TRIAL_CHUNK_CAP
    # trials so the stacked per-layer temporaries stay cache-resident.
    # In-process backends keep the near-equal static partition; task-shipping
    # pools get size-tiered chunks that their completion-driven schedulers
    # pull as workers free up, so a straggler strands at most one small tail
    # chunk.  Either way the partition is a pure function of (trials, jobs),
    # and per-trial seeds (or, in philox mode, per-trial slab rows) make
    # results chunking-invariant anyway.
    if backend.ships_tasks:
        chunks = steal_partition(request.trials, backend.jobs, cap=_TRIAL_CHUNK_CAP)
    else:
        parts = max(backend.jobs, math.ceil(request.trials / _TRIAL_CHUNK_CAP))
        chunks = partition_indices(request.trials, parts)
    if mode == "philox" and request.noise.supports_fused_sampling():
        # Counter-based fast path: generate the whole study's draws as one
        # (trials, loss + weight draws) Philox call in the parent, then ship
        # each chunk its contiguous row slice.  Trial i's draws are row i
        # regardless of chunking or backend.
        loss_columns = request.noise.loss_draw_count()
        weight_columns = sum(
            request.noise.weight_draw_count(size)
            for size in _weighted_layer_sizes(request.model)
        )
        draws = loss_columns + weight_columns
        dtype = compute_dtype()
        if backend.ships_tasks:
            # Each task carries a ~100-byte generation spec; the worker
            # re-derives its rows from the memoized pure slab function instead
            # of receiving pickled (or even shm-published) bytes.
            tasks = [
                (
                    chunk,
                    _SlabRows(
                        int(request.seed), request.trials, draws,
                        dtype.str, chunk[0], chunk[-1] + 1,
                    ),
                )
                for chunk in chunks
            ]
        else:
            with stage("rng"):
                slab = philox_fused_normals(
                    request.seed, request.trials, draws, dtype=dtype.type
                )
            tasks = [(chunk, slab[chunk[0] : chunk[-1] + 1]) for chunk in chunks]
        with backend.session():
            nested = _observed_dispatch(
                lambda: backend.map_tasks(_run_philox_chunk, tasks, shared=shared)
            )
    else:
        with backend.session():
            nested = _observed_dispatch(
                lambda: backend.map_tasks(_run_trial_chunk, chunks, shared=shared)
            )
    results = [result for chunk_results in nested for result in chunk_results]
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
