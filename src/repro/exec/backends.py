"""Execution backends: the shared interface and the serial reference.

One interface serves both orchestration layers -- design-point evaluation
batches in :class:`~repro.explore.dse.DesignSpaceExplorer` and batch scenario
runs in :class:`~repro.scenarios.runner.BatchRunner` -- instead of each
hand-rolling its own executor plumbing:

- :class:`SerialBackend` runs tasks inline (the reference ordering) and is the
  only in-process backend: the engine passes are pure Python, so a thread
  pool would only contend for one GIL;
- the task-shipping backends live in :mod:`repro.exec.cluster` and share one
  dispatch path: :class:`~repro.exec.cluster.ProcessBackend` forks local
  workers, :class:`~repro.exec.cluster.ClusterBackend` serves TCP-connected
  ones, and both run every round on a
  :class:`~repro.exec.cluster.ClusterCoordinator`.  Tasks and the shared
  context must be picklable (live engines stay home; consumers encode
  specs/overrides/workload data instead), and results always come back in
  task order, so a shipped run is byte-identical to a serial one.

All backends implement ``map_tasks(fn, tasks, shared=None)`` calling
``fn(shared, task)`` for every task and returning the results in task order.
``fn`` runs once per task; on a task-shipping backend it must be a
module-level (picklable) function and ``shared`` is pickled once per round,
which is where consumers put the bulky, task-invariant payload.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Type, Union

from repro.core.knobs import REPRO_ENV_PREFIX, repro_env_snapshot

TaskFn = Callable[[Any, Any], Any]


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Prefers the scheduler affinity mask over ``os.cpu_count()`` so
    cpuset-restricted containers (docker ``--cpuset-cpus``, K8s, taskset) size
    their pools -- and gate their wall-clock expectations -- on effective
    cores, not the host's.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def default_jobs() -> int:
    """Worker count when none is given: every core this process may use."""
    return available_cpus()


def _validate_jobs(jobs: Optional[int]) -> Optional[int]:
    if jobs is not None and (not isinstance(jobs, int) or jobs < 1):
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    return jobs


def steal_partition(
    count: int,
    workers: int,
    min_chunk: int = 1,
    factor: int = 4,
) -> List[List[int]]:
    """Size-tiered contiguous chunks for completion-driven (work-stealing) pools.

    Guided self-scheduling: each chunk takes ``ceil(remaining / (workers *
    factor))`` indices, so early chunks are large (amortizing per-chunk
    dispatch cost) and the tail degrades to ``min_chunk``-sized pieces -- a
    straggler can strand at most one small chunk's worth of work, instead of
    the ``count / workers`` a static one-chunk-per-worker split risks.  It is
    a pure function of its arguments and the chunks concatenate to
    ``range(count)``, so every backend shards identically-seeded work the same
    way and reassembling results by chunk position is byte-identical to serial
    no matter which worker pulled which chunk.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if min_chunk < 1:
        raise ValueError(f"min_chunk must be positive, got {min_chunk}")
    if factor < 1:
        raise ValueError(f"factor must be positive, got {factor}")
    if count == 0:
        return []
    if workers == 1:
        # Stealing needs at least two consumers; with one, minimizing dispatch
        # round-trips wins, so emit one chunk.
        return [list(range(count))]
    chunks: List[List[int]] = []
    start = 0
    remaining = count
    while remaining:
        size = max(min_chunk, math.ceil(remaining / (workers * factor)))
        size = min(size, remaining)
        chunks.append(list(range(start, start + size)))
        start += size
        remaining -= size
    return chunks


# REPRO_ENV_PREFIX and repro_env_snapshot are owned by the knob registry
# (repro.core.knobs) and re-exported above: the snapshot derives from the
# declared knobs, so a newly registered numerics knob can never be forgotten
# from what task-shipping backends pin into encodings.


@contextlib.contextmanager
def applied_env_snapshot(snapshot: Optional[Dict[str, str]]):
    """Run with the ``REPRO_*`` environment replaced by ``snapshot``.

    ``None`` applies nothing (a pre-snapshot task encoding).  The worker's own
    ``REPRO_*`` variables are removed for the duration -- the snapshot is the
    *whole* mode state, so a knob unset in the parent must read as unset on
    the worker even if the worker's shell exported it.
    """
    if snapshot is None:
        yield
        return
    saved = {
        key: value
        for key, value in os.environ.items()
        if key.startswith(REPRO_ENV_PREFIX)
    }
    for key in saved:
        if key not in snapshot:
            del os.environ[key]
    os.environ.update(snapshot)
    try:
        yield
    finally:
        for key in list(os.environ):
            if key.startswith(REPRO_ENV_PREFIX) and key not in saved:
                del os.environ[key]
        os.environ.update(saved)


class ExecutionBackend:
    """Maps a task function over a task list with deterministic result order."""

    name = "backend"

    #: True for backends whose workers live in other processes (or hosts) and
    #: therefore receive *encoded* tasks: consumers route such backends through
    #: their picklable task path (module-level function + encoded context)
    #: instead of sharing live objects.  One flag replaces scattered
    #: ``isinstance`` checks.
    ships_tasks = False

    @property
    def jobs(self) -> int:
        return 1

    @contextlib.contextmanager
    def session(self):
        """Scope within which per-worker state persists across rounds.

        Callers issuing several ``map_tasks`` rounds (e.g. feedback-driven
        search strategies) wrap them in one session; a backend whose workers
        live elsewhere keeps them (and their memoized state) alive for the
        scope.  Sessions nest.  An inline backend has nothing to keep, so the
        default session is a no-op.
        """
        yield self

    def map_tasks(
        self, fn: TaskFn, tasks: Sequence[Any], shared: Any = None
    ) -> List[Any]:
        """Run ``fn(shared, task)`` for every task; results keep task order.

        A task that raises propagates its exception to the caller (consumers
        that want per-task error capture catch inside ``fn``).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialBackend(ExecutionBackend):
    """Inline execution -- the reference behaviour every other backend must match."""

    name = "serial"

    def map_tasks(
        self, fn: TaskFn, tasks: Sequence[Any], shared: Any = None
    ) -> List[Any]:
        return [fn(shared, task) for task in tasks]


#: Backends constructible by name (the CLI's ``--backend`` values);
#: :mod:`repro.exec.cluster` registers ``processes`` and ``cluster``.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
}

BackendLike = Union[str, ExecutionBackend, None]


def resolve_backend(
    backend: BackendLike = None, jobs: Optional[int] = None
) -> ExecutionBackend:
    """Accept a backend instance, a registered name, or None.

    ``None`` is the serial backend for every ``jobs``: ``jobs`` sizes a
    parallel backend and never picks one.
    """
    _validate_jobs(jobs)
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        return SerialBackend()
    if isinstance(backend, str):
        if backend not in BACKENDS:
            import difflib

            close = difflib.get_close_matches(backend, sorted(BACKENDS), n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise KeyError(
                f"unknown execution backend {backend!r}{hint}; "
                f"known: {', '.join(sorted(BACKENDS))}"
            )
        cls = BACKENDS[backend]
        if cls is SerialBackend:
            return SerialBackend()
        return cls(jobs)
    raise TypeError(
        "backend must be an ExecutionBackend, a name "
        f"({', '.join(sorted(BACKENDS))}) or None, got {type(backend).__name__}"
    )
