"""Deterministic Monte Carlo trial seeding.

Every trial's random stream is a pure function of ``(scenario_seed, trial
index)``: the trial's :class:`numpy.random.SeedSequence` uses the scenario
seed as entropy and the trial index as its spawn key.  Any chunk of the trial
axis reconstructs bit-identical streams from nothing but the two integers,
which is what makes Monte Carlo accuracy tables independent of how the trials
are chunked and of which ``repro.exec`` worker ran the study.  This
deliberately avoids ``SeedSequence.spawn()``: spawning is stateful (the
parent's ``n_children_spawned`` advances), so two chunkings that partition
the trial list differently would derive different children.  Keying the
spawn path by the trial index directly has no such ordering dependence.

**Draw slabs.**  A study whose noise models all have a statically known draw
layout consumes a fixed number of standard normals per trial, so
:func:`seedseq_fused_normals` hands it one ``(trials, draws)`` slab whose row
``i`` is ``trial_rng(seed, i)``'s stream -- exactly the variates the
per-trial path draws, independent of how the trial axis is later chunked.
The slab is not memoized here: the engine memoizes it for the lifetime of one
:class:`~repro.core.cache.EvaluationCache`, so every study of a request with
the same ``(seed, trials, draws)`` shares it.  :func:`trial_rng` remains the
per-trial stream for custom noise models outside the fused layout.
"""

from __future__ import annotations

import numpy as np


def trial_seed_sequence(base_seed: int, trial: int) -> np.random.SeedSequence:
    """The canonical seed sequence of one Monte Carlo trial."""
    if trial < 0:
        raise ValueError(f"trial index must be non-negative, got {trial}")
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(trial),))


def trial_rng(base_seed: int, trial: int) -> np.random.Generator:
    """A fresh generator for one trial, identical no matter where it is built."""
    return np.random.Generator(np.random.PCG64(trial_seed_sequence(base_seed, trial)))


def seedseq_fused_normals(base_seed: int, trials: int, draws: int) -> np.ndarray:
    """Every trial's first ``draws`` standard normals, as one slab.

    Row ``i`` is ``trial_rng(base_seed, i).standard_normal(draws)``: the
    stream the per-trial path consumes, link-loss draws first (a scalar
    ``rng.normal(0, sigma)`` is ``0 + sigma * z`` at the same stream
    position), then the fused weight block.  The slab is read-only because
    the engine shares it between studies; copy before mutating.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if draws < 0:
        raise ValueError(f"draws must be non-negative, got {draws}")
    slab = np.empty((trials, draws))
    if draws:
        for trial in range(trials):
            trial_rng(base_seed, trial).standard_normal(out=slab[trial])
    slab.setflags(write=False)
    return slab
