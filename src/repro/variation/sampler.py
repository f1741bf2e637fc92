"""Deterministic Monte Carlo trial seeding, in two RNG modes.

**Reference mode (``seedseq``, the default).**  Every trial's random stream is
a pure function of ``(scenario_seed, trial index)``: the trial's
:class:`numpy.random.SeedSequence` uses the scenario seed as entropy and the
trial index as its spawn key.  Any chunk of the trial axis reconstructs
bit-identical streams from nothing but the two integers, which is what makes
Monte Carlo accuracy tables independent of how the trials are chunked and of
which ``repro.exec`` worker ran the study.  This deliberately avoids
``SeedSequence.spawn()``: spawning is stateful (the parent's
``n_children_spawned`` advances), so two chunkings that partition the trial
list differently would derive different children.  Keying the spawn path by
the trial index directly has no such ordering dependence.

**Throughput mode (``REPRO_RNG=philox``).**  Philox is *counter-based*: a
stream is a pure function of its 128-bit key, so no per-trial SeedSequence
hashing or PCG64 state derivation is needed.
Philox mode is deterministic and backend-invariant for a fixed seed, but its
streams differ from the SeedSequence contract, so committed reference tables
are only reproduced in the default mode.

**Draw slabs.**  A study whose noise models all have a statically known draw
layout consumes a fixed number of standard normals per trial, so both modes
hand it one ``(trials, draws)`` slab whose row ``i`` is trial ``i``'s stream --
a pure function of ``(seed, i, draws)``, independent of how the trial axis is
later chunked:

- :func:`seedseq_fused_normals` fills row ``i`` from :func:`trial_rng`, i.e.
  exactly the variates the per-trial path draws;
- :func:`philox_fused_normals` generates the whole slab from **one** keyed
  stream per scenario seed in a single call.

Neither is memoized here: the engine memoizes a slab for the lifetime of one
:class:`~repro.core.cache.EvaluationCache`, so every study of a request with
the same ``(seed, trials, draws)`` shares it.  :func:`trial_rng` and
:func:`philox_trial_rng` remain the per-trial streams for custom noise models
outside the fused layout.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.core.knobs import raw_value as _knob_raw

#: Environment knob selecting the trial RNG derivation: ``seedseq`` (default,
#: the bit-exact per-trial SeedSequence contract) or ``philox`` (counter-based
#: fused generation, the throughput mode).  Declared in :mod:`repro.core.knobs`.
RNG_MODE_ENV = "REPRO_RNG"

_RNG_MODES = ("seedseq", "philox")


def rng_mode() -> str:
    """The active trial-RNG mode: ``"seedseq"`` (default) or ``"philox"``.

    Read from ``$REPRO_RNG`` on every call so tests and benchmarks can flip the
    mode without re-importing; unknown values fail loudly rather than silently
    sampling from the wrong contract.
    """
    mode = (_knob_raw(RNG_MODE_ENV) or "seedseq").strip().lower()
    if mode not in _RNG_MODES:
        raise ValueError(
            f"{RNG_MODE_ENV} must be one of {', '.join(_RNG_MODES)}, got {mode!r}"
        )
    return mode


def trial_seed_sequence(base_seed: int, trial: int) -> np.random.SeedSequence:
    """The canonical seed sequence of one Monte Carlo trial."""
    if trial < 0:
        raise ValueError(f"trial index must be non-negative, got {trial}")
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(trial),))


def trial_rng(base_seed: int, trial: int) -> np.random.Generator:
    """A fresh generator for one trial, identical no matter where it is built."""
    return np.random.Generator(np.random.PCG64(trial_seed_sequence(base_seed, trial)))


def _check_slab(trials: int, draws: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if draws < 0:
        raise ValueError(f"draws must be non-negative, got {draws}")


def seedseq_fused_normals(base_seed: int, trials: int, draws: int) -> np.ndarray:
    """Every trial's first ``draws`` reference-mode standard normals, as one slab.

    Row ``i`` is ``trial_rng(base_seed, i).standard_normal(draws)``: the
    stream the per-trial path consumes, link-loss draws first (a scalar
    ``rng.normal(0, sigma)`` is ``0 + sigma * z`` at the same stream
    position), then the fused weight block.  The slab is read-only because
    the engine shares it between studies; copy before mutating.
    """
    _check_slab(trials, draws)
    slab = np.empty((trials, draws))
    if draws:
        for trial in range(trials):
            trial_rng(base_seed, trial).standard_normal(out=slab[trial])
    slab.setflags(write=False)
    return slab


# -- counter-based (Philox) mode -------------------------------------------------------


@lru_cache(maxsize=1024)
def _philox_keys(base_seed: int) -> Tuple[int, int, int, int]:
    """Four 64-bit key words derived once per scenario seed.

    Words 0-1 key the study-wide fused stream (:func:`philox_fused_normals`);
    words 2-3 are the base of the per-trial keys (:func:`philox_trial_rng`).
    Deriving through a SeedSequence keeps low-entropy seeds (0, 1, 2, ...)
    well-mixed; the two key domains never collide because Philox streams with
    different keys are independent by construction.
    """
    state = np.random.SeedSequence(entropy=int(base_seed)).generate_state(4, np.uint64)
    return tuple(int(word) for word in state)


def philox_fused_normals(
    base_seed: int, trials: int, draws: int, dtype: type = np.float64
) -> np.ndarray:
    """All trials' fused standard-normal blocks as one ``(trials, draws)`` call.

    Row ``i`` (variates ``[i * draws, (i + 1) * draws)`` of the study's keyed
    Philox stream) is trial ``i``'s block -- a pure function of
    ``(base_seed, i, draws)``, so any chunking of the trial axis slices the
    same rows.  The slab is read-only, like :func:`seedseq_fused_normals`.

    ``dtype`` may be ``np.float32`` (the ``REPRO_DTYPE=float32`` path):
    generation is then natively single-precision -- fewer raw Philox words and
    no post-hoc cast -- at the cost of a different (but equally valid) draw
    sequence than the float64 slab, which is why the engine keys cached
    studies and slabs by dtype mode as well.
    """
    _check_slab(trials, draws)
    key = np.array(_philox_keys(int(base_seed))[:2], dtype=np.uint64)
    generator = np.random.Generator(np.random.Philox(key=key))
    slab = generator.standard_normal((trials, draws), dtype=np.dtype(dtype))
    slab.setflags(write=False)
    return slab


def philox_trial_rng(base_seed: int, trial: int) -> np.random.Generator:
    """A counter-keyed per-trial generator: cheap, cache-free construction.

    Used where philox mode still needs a stream object per trial (custom
    noise models outside the fused layout).  The key
    is ``(seed-derived base) xor trial``, so streams are independent across
    trials and deterministic no matter where they are built.
    """
    if trial < 0:
        raise ValueError(f"trial index must be non-negative, got {trial}")
    keys = _philox_keys(base_seed)
    mixed = (keys[3] ^ int(trial)) & 0xFFFFFFFFFFFFFFFF
    key = np.array([keys[2], mixed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def make_trial_rng(base_seed: int, trial: int, mode: str) -> np.random.Generator:
    """One trial's generator under the given RNG mode (``seedseq``/``philox``)."""
    if mode == "philox":
        return philox_trial_rng(base_seed, trial)
    if mode == "seedseq":
        return trial_rng(base_seed, trial)
    raise ValueError(f"unknown RNG mode {mode!r}")

