"""Stage-level wall-clock attribution for the Monte Carlo hot path.

The ``repro bench`` harness needs to know *where* a study's time goes -- random
number generation, the stacked forwards, quantization, metrics -- so each PR's
``BENCH_*.json`` records where the next ceiling is.  This module is the
variation-pipeline analogue of :func:`repro.core.engine.observe_passes`: a
registered observer receives ``(stage_name, seconds)`` for every instrumented
block, and when no observer is registered the :func:`stage` context manager
short-circuits to (near) zero overhead, so production runs pay nothing.

Stages are coarse by design -- chunk-level and layer-level blocks, not
per-element timers -- and observers run on whichever thread executed the block
(concurrent studies time concurrently), so observers must be thread-safe;
:class:`StageAccumulator` is the lock-protected default collector.  Timings
from process-backend workers stay in the worker (the bench harness times
scenarios on the in-process serial backend, where attribution is complete).
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Dict, Iterator, List

#: The stage names the variation pipeline attributes time to.  ``dispatch``
#: is the execution layer's own share: backend wall-clock not attributable to
#: any worker-reported compute stage (pool spin-up, pickling, IPC, idle gaps).
STAGE_NAMES = ("rng", "forward", "quantize", "metrics", "dispatch")

#: Registered stage observers.  Mutated only under the lock: concurrent
#: ``observe_stages`` scopes (e.g. studies on several threads) would otherwise
#: race ``append``/``remove`` and could drop or double-register a callback.
_OBSERVERS: List[Callable[[str, float], None]] = []
_OBSERVERS_LOCK = threading.Lock()


def stages_active() -> bool:
    """Whether any stage observer is registered (the fast-path guard)."""
    return bool(_OBSERVERS)


@contextlib.contextmanager
def observe_stages(callback: Callable[[str, float], None]) -> Iterator[None]:
    """Register ``callback(stage, seconds)`` for every timed block in scope."""
    with _OBSERVERS_LOCK:
        _OBSERVERS.append(callback)
    try:
        yield
    finally:
        with _OBSERVERS_LOCK:
            _OBSERVERS.remove(callback)


def emit(name: str, seconds: float) -> None:
    """Report an externally measured stage duration to the observers.

    The re-entry point for timings that crossed a process or host boundary:
    process-pool chunks and cluster workers accumulate their own ``stage``
    blocks and ship the totals home, where the parent emits them into its
    observers so ``observe_stages`` sees one complete attribution regardless
    of backend.
    """
    if not _OBSERVERS:
        return
    for callback in list(_OBSERVERS):
        callback(name, seconds)


def emit_totals(totals: Dict[str, float]) -> None:
    """Emit a ``{stage: seconds}`` map (a shipped accumulator snapshot)."""
    for name, seconds in totals.items():
        emit(name, seconds)


@contextlib.contextmanager
def stage(name: str) -> Iterator[None]:
    """Time the enclosed block and report it to the registered observers."""
    if not _OBSERVERS:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        for callback in list(_OBSERVERS):
            callback(name, elapsed)


class StageAccumulator:
    """Thread-safe per-stage totals: the default ``observe_stages`` collector."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seconds: Dict[str, float] = {}

    def __call__(self, name: str, seconds: float) -> None:
        with self._lock:
            self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def reset(self) -> None:
        with self._lock:
            self._seconds.clear()

    def totals(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._seconds)
