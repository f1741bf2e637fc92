"""Deterministic Monte Carlo trial seeding, in two RNG modes.

**Reference mode (``seedseq``, the default).**  Every trial's random stream is
a pure function of ``(scenario_seed, trial index)``: the trial's
:class:`numpy.random.SeedSequence` uses the scenario seed as entropy and the
trial index as its spawn key.  Any worker -- the local process, a thread, or a
process-pool worker that received nothing but the two integers -- reconstructs
bit-identical streams, which is what makes Monte Carlo accuracy tables
byte-identical across the ``repro.exec`` backends.  This deliberately avoids
``SeedSequence.spawn()``: spawning is stateful (the parent's
``n_children_spawned`` advances), so two backends that partition the trial
list differently would derive different children.  Keying the spawn path by
the trial index directly has no such ordering dependence.

**Throughput mode (``REPRO_RNG=philox``).**  The seed contract's per-trial
SeedSequence hashing and PCG64 state derivation dominate large studies.  Philox is *counter-based*: a stream
is a pure function of its 128-bit key, so

- :func:`philox_fused_normals` derives **one** keyed stream per scenario seed
  and generates every trial's fused standard-normal block in a single
  ``(trials, draws)`` call -- trial ``i`` owns row ``i``, a pure function of
  ``(seed, i, draws)`` independent of how the trial axis is later chunked;
- :func:`philox_trial_rng` (the per-trial fallback for custom noise models
  outside the fused layout) keys an independent Philox stream directly by
  ``(seed, trial)`` -- no hashing, no state cache.

Philox mode is deterministic and backend-invariant for a fixed seed, but its
streams differ from the SeedSequence contract, so committed reference tables
are only reproduced in the default mode.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from typing import List, Tuple

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


#: Memoized PCG64 start states: the state is a pure function of (seed, trial),
#: and hashing a SeedSequence into a bit-generator state costs more than
#: restoring it, so studies that revisit the same trial seeds (e.g. a noise
#: sweep at fixed scenario seed) skip the re-derivation.  Insertion-ordered and
#: lock-protected so several threads can hammer it concurrently: the bound
#: is exact (never exceeded, even under races) and eviction is deterministic
#: FIFO -- the oldest insertion goes first, regardless of thread interleaving.
_STATE_CACHE: "OrderedDict[Tuple[int, int], dict]" = OrderedDict()
_STATE_CACHE_MAX = 65536
_STATE_LOCK = threading.Lock()


def trial_rng(base_seed: int, trial: int) -> np.random.Generator:
    """A fresh generator for one trial, identical no matter where it is built."""
    key = (int(base_seed), int(trial))
    with _STATE_LOCK:
        state = _STATE_CACHE.get(key)
    if state is None:
        bit_generator = np.random.PCG64(trial_seed_sequence(base_seed, trial))
        with _STATE_LOCK:
            if key not in _STATE_CACHE:
                while len(_STATE_CACHE) >= _STATE_CACHE_MAX:
                    _STATE_CACHE.popitem(last=False)
                _STATE_CACHE[key] = bit_generator.state
    else:
        bit_generator = np.random.PCG64(0)
        bit_generator.state = state
    return np.random.Generator(bit_generator)


def trial_rngs(base_seed: int, num_trials: int) -> List[np.random.Generator]:
    """Independent per-trial generators for ``num_trials`` trials."""
    if num_trials < 1:
        raise ValueError(f"num_trials must be positive, got {num_trials}")
    return [trial_rng(base_seed, trial) for trial in range(num_trials)]


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


@lru_cache(maxsize=8)
def _fused_normals_cached(
    base_seed: int, trials: int, draws: int, dtype_str: str
) -> np.ndarray:
    keys = _philox_keys(base_seed)
    key = np.array(keys[:2], dtype=np.uint64)
    generator = np.random.Generator(np.random.Philox(key=key))
    slab = generator.standard_normal((trials, draws), dtype=np.dtype(dtype_str))
    # Shared across callers (noise-scale sweeps reuse one slab): read-only so
    # an accidental in-place write fails loudly instead of corrupting trials.
    slab.setflags(write=False)
    return slab


def philox_fused_normals(
    base_seed: int, trials: int, draws: int, dtype: type = np.float64
) -> np.ndarray:
    """All trials' fused standard-normal blocks as one ``(trials, draws)`` call.

    Row ``i`` (variates ``[i * draws, (i + 1) * draws)`` of the study's keyed
    Philox stream) is trial ``i``'s block -- a pure function of
    ``(base_seed, i, draws)``, so any chunking of the trial axis slices the
    same rows.  The caller generates the whole matrix once per study and ships
    row slices to worker chunks.

    Because the slab is a pure function of ``(base_seed, trials, draws,
    dtype)``, it is memoized (small LRU): a noise-magnitude sweep at a fixed
    scenario seed draws its standard normals **once** and rescales -- the
    normals themselves are scale-independent.  The returned array is read-only
    and shared between callers; copy before mutating.

    ``dtype`` may be ``np.float32`` (the ``REPRO_DTYPE=float32`` path):
    generation is then natively single-precision -- fewer raw Philox words and
    no post-hoc cast -- at the cost of a different (but equally valid) draw
    sequence than the float64 slab, which is why the engine keys cached
    studies by dtype mode as well.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if draws < 0:
        raise ValueError(f"draws must be non-negative, got {draws}")
    return _fused_normals_cached(
        int(base_seed), int(trials), int(draws), np.dtype(dtype).str
    )


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
