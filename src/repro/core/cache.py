"""Canonical hashing and the shared memoization store for the evaluation engine.

The staged :class:`~repro.core.engine.EvaluationEngine` splits a simulation into
passes (route -> map -> memory -> link-budget/area -> latency/energy -> aggregate)
and memoizes each pass on a canonical fingerprint of *exactly the inputs that pass
reads* -- the architecture's symbolic structure, the resolved scaling parameters,
the :class:`~repro.core.config.SimulationConfig` fields, and of a workload either
its shape (:func:`workload_shape`: the ``map`` and ``memory`` passes never read
operand values) or its operand data (the data-aware energy stages).  A
design-space sweep that varies one parameter therefore only re-runs the passes that
parameter invalidates; everything else is a cache hit.

Pass-level keys are canonical, order-stable tuples (:func:`fingerprint`), which
compare structurally; per-object identities (:func:`digest`) compress the heavy
canonicalization into a SHA-1 string computed once and memoized on the object:

- dataclasses/enums/dicts/sequences are recursively canonicalized with sorted keys;
- numeric numpy arrays hash their shape, dtype and raw bytes (value-exact, no
  tolerance), read straight from the array's buffer with no copy when it is C- or
  F-contiguous.  An F-contiguous array (a transposed weight view) hashes its
  transpose's buffer and carries an ``"F"`` layout tag, so it never shares a key
  with the C-ordered array holding the same bytes; only strided arrays are
  copied to C order first.  Object-dtype arrays render element by element (their
  buffer holds pointers, not values);
- :class:`~repro.dataflow.gemm.GEMMWorkload` operand tensors are hashed once and the
  digest (:func:`workload_fingerprint`) is memoized on the workload object
  (workloads are treated as immutable once handed to an engine -- mutate a copy,
  not the original, between runs).  Only the keys that read operand values use
  it: ``operand_values`` and ``device_power`` in the energy pass, and the DSE
  ``design_point`` key.

:class:`EvaluationCache` is the store shared by every pass (and by all design points
of an exploration): a thread-safe dict keyed by ``(stage, fingerprint)`` with
per-stage hit/miss accounting, so sweeps can report exactly which passes were
re-used.  Disabling the cache turns every lookup into a plain recompute, restoring
the seed simulator's behaviour bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Hashable, Optional, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

_FINGERPRINT_ATTR = "_repro_fingerprint"
#: The absent-entry sentinel of :meth:`EvaluationCache.lookup`, since ``None``
#: is a legitimate stored value.
_MISSING = object()
_MAX_CANONICAL_DEPTH = 12


def canonical_value(obj: Any, depth: int = 0) -> Any:
    """Render ``obj`` as a deterministic, repr-stable structure for hashing.

    Handles the value types that appear in evaluation-pass inputs: scalars,
    strings, enums, numpy arrays/scalars, dataclasses, mappings and sequences.
    Arbitrary objects fall back to their class name plus sorted ``__dict__``
    (bounded by a recursion depth so cyclic object graphs fail loudly rather
    than hanging).
    """
    kind = type(obj)
    if kind is str or kind is int or kind is float or kind is bool or obj is None:
        # Fast path for the scalars that dominate pass keys.  Raw floats hash
        # and compare structurally (0.0 and -0.0 share a key, which is fine for
        # physical quantities); positions in a key always hold one field, so
        # bool/int hash equality cannot mix semantics.
        return obj
    if depth > _MAX_CANONICAL_DEPTH:
        raise ValueError(f"canonical_value recursion too deep at {type(obj).__name__}")
    if isinstance(obj, (bool, int, float, str, bytes)):
        return obj if not isinstance(obj, float) else obj + 0.0
    if isinstance(obj, Enum):
        return ("enum", type(obj).__name__, obj.value)
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            # The buffer holds PyObject pointers, not values: render each element.
            items = tuple(canonical_value(item, depth + 1) for item in obj.ravel().tolist())
            return ("ndarray", obj.shape, str(obj.dtype), items)
        if obj.flags.f_contiguous and not obj.flags.c_contiguous:
            # A transposed view (the extracted weight operands): hash its
            # transpose's C buffer in place.  The layout tag keeps it apart
            # from the C-ordered array whose buffer holds the same bytes.
            digest = hashlib.sha1(obj.T).hexdigest()
            return ("ndarray", obj.shape, str(obj.dtype), digest, "F")
        # C-contiguous arrays hash their buffer without a bytes copy.  Strided
        # arrays are copied to C order first, and 0-d arrays key as shape (1,).
        data = obj if obj.flags.c_contiguous and obj.ndim else np.ascontiguousarray(obj)
        return ("ndarray", data.shape, str(data.dtype), hashlib.sha1(data).hexdigest())
    if isinstance(obj, np.generic):
        return canonical_value(obj.item(), depth + 1)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = (
            (f.name, canonical_value(getattr(obj, f.name), depth + 1))
            for f in dataclasses.fields(obj)
        )
        return (type(obj).__name__, tuple(fields))
    if isinstance(obj, dict):
        items = sorted(
            ((repr(canonical_value(k, depth + 1)), canonical_value(v, depth + 1))
             for k, v in obj.items())
        )
        return ("dict", tuple(items))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical_value(item, depth + 1) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(canonical_value(i, depth + 1)) for i in obj)))
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        items = sorted(
            (name, canonical_value(value, depth + 1))
            for name, value in attrs.items()
            if not name.startswith("_repro_")
        )
        return (type(obj).__name__, tuple(items))
    return (type(obj).__name__, repr(obj))


def fingerprint(*parts: Any) -> Hashable:
    """Canonical, hashable cache key for ``parts``.

    The key is the canonical rendering itself (a nested tuple of primitives),
    which compares structurally -- collision-free by construction and cheaper
    than digesting a repr.  Large payloads (numpy arrays) are already reduced to
    SHA-1 digests inside :func:`canonical_value`, so keys stay small.
    """
    return tuple(canonical_value(part) for part in parts)


def digest(*parts: Any) -> str:
    """Compact SHA-1 digest of the canonical rendering of ``parts``.

    Used for the memoized *per-object* fingerprints (workloads, libraries,
    architectures): the heavy canonicalization runs once per object, and the
    resulting short string embeds cheaply into the tuple keys of later passes
    without being re-walked on every lookup.
    """
    return hashlib.sha1(repr(fingerprint(*parts)).encode("utf-8")).hexdigest()


def memoized_fingerprint(obj: Any, compute: Callable[[], Hashable]) -> Hashable:
    """Fingerprint ``obj`` once and stash the digest on the object when possible."""
    cached = getattr(obj, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = compute()
    try:
        object.__setattr__(obj, _FINGERPRINT_ATTR, digest)
    except (AttributeError, TypeError):  # __slots__ or exotic objects: recompute later
        pass
    return digest


# -- fingerprints of the domain objects the passes consume --------------------------


def config_fingerprint(config: Any) -> Hashable:
    """Canonical digest of an (architecture or simulation) config dataclass.

    Not memoized on the object: configs are mutable, and a stashed digest
    would outlive an in-place edit.  Callers that key many lookups on one
    config snapshot it and digest the snapshot once.
    """
    return digest(type(config).__name__, config)


def workload_shape(gemm: Any) -> Tuple[int, ...]:
    """Shape signature of a GEMM workload: its dimensions and operand bitwidths.

    Everything the ``map`` and ``memory`` passes read of a workload, so they key
    on this rather than on :func:`workload_fingerprint` and never hash operands.
    """
    return (gemm.m, gemm.n, gemm.k, gemm.input_bits, gemm.weight_bits, gemm.output_bits)


def workload_fingerprint(workload: Any) -> Hashable:
    """Digest of a GEMM/Layer workload including its operand tensors."""
    gemm = getattr(workload, "gemm", workload)

    def compute() -> str:
        return digest(
            "workload",
            gemm.name,
            gemm.m,
            gemm.n,
            gemm.k,
            gemm.input_bits,
            gemm.weight_bits,
            gemm.output_bits,
            gemm.layer_type,
            gemm.weight_static,
            gemm.weight_values,
            gemm.input_values,
            gemm.pruning_mask,
        )

    gemm_digest = memoized_fingerprint(gemm, compute)
    if gemm is workload:
        return gemm_digest
    return digest("layer", gemm_digest, workload.layer_name, workload.layer_type,
                  getattr(workload, "ptc_type", None))


def device_fingerprint(device: Any) -> Hashable:
    """Digest of a device model: its spec record plus its power-response state."""
    return memoized_fingerprint(
        device,
        lambda: digest("device", type(device).__name__, device.spec,
                       device.response),
    )



def netlist_fingerprint(netlist: Any) -> Hashable:
    """Digest of a netlist's instances and directed nets."""
    return memoized_fingerprint(
        netlist,
        lambda: digest(
            "netlist",
            netlist.name,
            tuple((i.name, i.device, i.role) for i in netlist.instances.values()),
            tuple(netlist.edge_list()),
        ),
    )





# -- the shared store ----------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one pass (stage) of the evaluation pipeline."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class EvaluationCache:
    """Thread-safe memoization store shared by the engine's passes.

    Entries are keyed by ``(stage, key)`` where ``key`` is a canonical fingerprint
    of the pass inputs.  Per-stage :class:`CacheStats` record how much of a sweep
    was re-used.  With ``enabled=False`` every lookup recomputes (and counts a
    miss), which restores the unmemoized seed behaviour for A/B comparisons.
    """

    def __init__(self, enabled: bool = True, max_entries: Optional[int] = None) -> None:
        if max_entries is None:
            from repro.core import knobs

            max_entries = knobs.value("REPRO_CACHE_MAX_ENTRIES")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive when given")
        self.enabled = enabled
        self.max_entries = max_entries
        self._store: Dict[Tuple[str, Hashable], Any] = {}
        self._stats: Dict[str, CacheStats] = {}
        self._lock = threading.RLock()

    # -- core protocol ---------------------------------------------------------------
    def get_or_compute(self, stage: str, key: Hashable, compute: Callable[[], T]) -> T:
        """Return the cached value for ``(stage, key)`` or compute and store it.

        The compute callable runs outside the lock, so a slow pass does not
        serialize unrelated lookups; concurrent misses on the same key may
        compute twice but store a single (identical) result.
        """
        found, value = self.lookup(stage, key)
        if found:
            return value
        value = compute()
        self.store(stage, key, value)
        return value

    def lookup(self, stage: str, key: Hashable) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss; counts either.

        The first half of :meth:`get_or_compute`, for callers that compute
        their misses together (the explorer's design-point batches) and then
        :meth:`store` each one.  A disabled cache always misses.
        """
        with self._lock:
            stats = self._stat(stage)
            if self.enabled:
                entry = (stage, key)
                value = self._store.get(entry, _MISSING)
                if value is not _MISSING:
                    stats.hits += 1
                    if self.max_entries is not None:
                        # LRU: re-insert on hit so recency, not insertion
                        # order, decides which entry a bounded cache drops next.
                        del self._store[entry]
                        self._store[entry] = value
                    return True, value
            stats.misses += 1
        return False, None

    def store(self, stage: str, key: Hashable, value: Any) -> None:
        """Store a computed miss, evicting the least recently used entry if full."""
        if not self.enabled:
            return
        with self._lock:
            if (
                self.max_entries is not None
                and (stage, key) not in self._store
                and len(self._store) >= self.max_entries
            ):
                oldest = next(iter(self._store))
                del self._store[oldest]
                self._stat(oldest[0]).evictions += 1
            self._store[(stage, key)] = value

    def _stat(self, stage: str) -> CacheStats:
        stats = self._stats.get(stage)
        if stats is None:
            stats = self._stats[stage] = CacheStats()
        return stats

    # -- introspection ---------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, CacheStats]:
        """Per-stage hit/miss counters (a live view; copy before mutating)."""
        with self._lock:
            return dict(self._stats)

    @property
    def total_hits(self) -> int:
        with self._lock:
            return sum(s.hits for s in self._stats.values())

    @property
    def total_misses(self) -> int:
        with self._lock:
            return sum(s.misses for s in self._stats.values())

    def stats_summary(self) -> str:
        """One line per stage: ``stage: hits/lookups``."""
        with self._lock:
            lines = [
                f"{stage}: {s.hits}/{s.lookups} hits"
                for stage, s in sorted(self._stats.items())
            ]
        return "\n".join(lines)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._store.clear()
            self._stats.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvaluationCache(enabled={self.enabled}, entries={len(self)}, "
            f"hits={self.total_hits}, misses={self.total_misses})"
        )
