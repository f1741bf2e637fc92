"""Stage-level wall-clock attribution for the Monte Carlo hot path.

The benchmark's layer trace (``perfbench/``) needs to know *where* a study's
time goes -- random number generation, the stacked forwards, quantization,
metrics -- so each run records where the next ceiling is.  This module is the
variation-pipeline analogue of :func:`repro.core.engine.observe_passes`: a
registered observer receives ``(stage_name, seconds)`` for every instrumented
block, and when no observer is registered the :func:`stage` context manager
short-circuits to (near) zero overhead, so production runs pay nothing.

Stages are coarse by design -- chunk-level and layer-level blocks, not
per-element timers -- and observers run on whichever thread executed the block
(concurrent studies time concurrently), so observers must be thread-safe;
:class:`StageAccumulator` is the lock-protected default collector.  A study
always runs in the process that called it, so the observers registered there
see every stage it times.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Dict, Iterator, List

#: The stage names the variation pipeline attributes time to.
STAGE_NAMES = ("rng", "forward", "quantize", "metrics")

#: Registered stage observers.  Mutated only under the lock: concurrent
#: ``observe_stages`` scopes (e.g. studies on several threads) would otherwise
#: race ``append``/``remove`` and could drop or double-register a callback.
_OBSERVERS: List[Callable[[str, float], None]] = []
_OBSERVERS_LOCK = threading.Lock()


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
