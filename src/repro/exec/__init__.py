"""Pluggable process-parallel execution layer.

``repro.exec`` is the one place that knows how to fan work out: the batch
scenario runner and the design-space explorer both consume
:class:`ExecutionBackend` instead of hand-rolled executor code, so ``--backend
{serial,processes,cluster} --jobs N`` means the same thing everywhere.
Serial is the only in-process backend; the two task-shipping backends share
one worker loop: ``processes`` forks local workers that speak the
:mod:`~repro.exec.cluster` protocol over socketpairs, ``cluster`` accepts the
same workers over TCP, and one coordinator chunks, ships, requeues and
collects for both (warm local fleets live in :mod:`~repro.exec.pool`, large
payloads travel through :mod:`~repro.exec.shm`).  The :mod:`~repro.exec.telemetry` helpers keep the
accounting (engine passes, per-pass wall-clock, cache hit/miss counters)
mergeable across process and host boundaries, so reports look identical no
matter which backend ran the work.

The package itself exports only the serial path (:mod:`~repro.exec.backends`)
and the telemetry.  :mod:`~repro.exec.cluster`, :mod:`~repro.exec.pool` and
:mod:`~repro.exec.shm` load on demand: :func:`resolve_backend` imports the
cluster module the first time it is asked for a backend name it has not
registered yet, and callers that use the task-shipping machinery directly
import the submodule they need, so a serial run never loads them.
"""

from repro.exec.backends import (
    BACKEND_NAMES,
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    applied_env_snapshot,
    available_cpus,
    default_jobs,
    repro_env_snapshot,
    resolve_backend,
    steal_partition,
)
from repro.exec.telemetry import (
    scoped_pass_observer,
    PassTiming,
    WorkerTelemetry,
    cache_stats_delta,
    cache_stats_snapshot,
    merge_cache_stats,
    merge_pass_timings,
    render_pass_timings,
)

__all__ = [
    "BACKEND_NAMES",
    "BACKENDS",
    "ExecutionBackend",
    "PassTiming",
    "SerialBackend",
    "WorkerTelemetry",
    "applied_env_snapshot",
    "available_cpus",
    "cache_stats_delta",
    "cache_stats_snapshot",
    "default_jobs",
    "merge_cache_stats",
    "merge_pass_timings",
    "render_pass_timings",
    "repro_env_snapshot",
    "resolve_backend",
    "steal_partition",
]
