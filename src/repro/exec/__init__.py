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
"""

from repro.exec.backends import (
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
from repro.exec.pool import pool_mode, pool_status, stop_pools
from repro.exec.shm import (
    ShmHandle,
    active_segments,
    as_object,
    publish_object,
    resolve_object,
    set_fetch_hook,
    shm_enabled,
    unlink_all,
)
from repro.exec.cluster import (
    ClusterBackend,
    ClusterCoordinator,
    ClusterTaskError,
    ProcessBackend,
    coordinator_for,
    parse_address,
    run_worker,
    shutdown_coordinators,
    spawn_local_workers,
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
    "BACKENDS",
    "ClusterBackend",
    "ClusterCoordinator",
    "ClusterTaskError",
    "ExecutionBackend",
    "PassTiming",
    "ProcessBackend",
    "SerialBackend",
    "ShmHandle",
    "WorkerTelemetry",
    "active_segments",
    "applied_env_snapshot",
    "as_object",
    "available_cpus",
    "cache_stats_delta",
    "cache_stats_snapshot",
    "coordinator_for",
    "default_jobs",
    "merge_cache_stats",
    "merge_pass_timings",
    "parse_address",
    "pool_mode",
    "pool_status",
    "publish_object",
    "render_pass_timings",
    "repro_env_snapshot",
    "resolve_backend",
    "resolve_object",
    "run_worker",
    "set_fetch_hook",
    "shm_enabled",
    "shutdown_coordinators",
    "spawn_local_workers",
    "steal_partition",
    "stop_pools",
    "unlink_all",
]
