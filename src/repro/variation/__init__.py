"""Variation-aware Monte Carlo accuracy: device noise -> ONN inference accuracy.

The subsystem closes the loop the cross-layer framework was missing: device and
circuit non-idealities (weight-encoding error, phase noise, crosstalk,
insertion-loss / thermal drift) propagate through the link budget and the
SNR-derived receiver precision into workload-level inference *accuracy*, which
then stands next to energy / latency / area as a first-class objective:

- :mod:`repro.variation.models`     -- composable :class:`NoiseSpec` variation models;
- :mod:`repro.variation.sampler`    -- deterministic per-trial seeding, chunking-invariant,
  in two modes: the bit-exact SeedSequence contract (default) and the
  counter-based ``REPRO_RNG=philox`` throughput mode;
- :mod:`repro.variation.accuracy`   -- noisy functional forward + accuracy/error metrics;
- :mod:`repro.variation.stages`     -- per-stage (rng/forward/quantize/metrics)
  wall-clock attribution for the bench harness;
- :mod:`repro.variation.montecarlo` -- in-process chunked trial execution,
  the :class:`AccuracyRequest` study record and the engine-integrated
  :func:`evaluate_accuracy` entry point.

The engine side lives in :mod:`repro.core.engine` (``receiver_precision`` and
``mc_accuracy`` passes, :meth:`EvaluationEngine.run_accuracy`); the exploration
side in :mod:`repro.explore.dse` (``accuracy`` / ``error_rate`` DesignPoint
objectives); registered scenarios in :mod:`repro.scenarios.catalog`
(``variation_robustness``, ``accuracy_vs_precision``, ``accuracy_energy_pareto``).
"""

from repro.variation.accuracy import (
    AccuracyReport,
    TrialResult,
    classification_agreement,
    classification_agreement_batch,
    model_fingerprint,
    noisy_forward,
    noisy_forward_batch,
    output_rmse,
    output_rmse_batch,
    reference_forward,
)
from repro.variation.models import (
    IDEAL,
    Crosstalk,
    LinkLossDrift,
    NoiseSpec,
    PhaseError,
    VariationModel,
    WeightEncodingError,
    standard_noise,
)
from repro.variation.montecarlo import (
    AccuracyRequest,
    LinkOperatingPoint,
    evaluate_accuracy,
    run_monte_carlo,
)
from repro.variation.sampler import (
    make_trial_rng,
    philox_fused_normals,
    philox_trial_rng,
    rng_mode,
    trial_rng,
    trial_rngs,
    trial_seed_sequence,
)
from repro.variation.stages import (
    STAGE_NAMES,
    StageAccumulator,
    observe_stages,
    stage,
)

__all__ = [
    "AccuracyReport",
    "AccuracyRequest",
    "Crosstalk",
    "IDEAL",
    "LinkLossDrift",
    "LinkOperatingPoint",
    "NoiseSpec",
    "PhaseError",
    "TrialResult",
    "VariationModel",
    "WeightEncodingError",
    "STAGE_NAMES",
    "StageAccumulator",
    "classification_agreement",
    "classification_agreement_batch",
    "evaluate_accuracy",
    "make_trial_rng",
    "model_fingerprint",
    "noisy_forward",
    "noisy_forward_batch",
    "observe_stages",
    "output_rmse",
    "output_rmse_batch",
    "philox_fused_normals",
    "philox_trial_rng",
    "reference_forward",
    "rng_mode",
    "run_monte_carlo",
    "stage",
    "standard_noise",
    "trial_rng",
    "trial_rngs",
    "trial_seed_sequence",
]
