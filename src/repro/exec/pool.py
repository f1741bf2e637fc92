"""Local worker fleets: the process backend's cold and warm lifecycles.

The process backend runs its tasks on forked local workers that speak the
cluster protocol (:func:`repro.exec.cluster.fork_workers`).  :func:`lease`
hands each dispatch scope -- a backend session, or one ``map_tasks`` call
without one -- such a fleet according to ``REPRO_POOL``:

- ``cold`` (the default) forks a fleet for the scope and drains and reaps it
  when the scope ends, so every dispatch starts from fresh workers -- the
  right mode for tests that assert cold-start pass counts;
- ``warm`` leases one persistent fleet per worker count instead, so the
  second batch starts with imported modules and warm worker memos
  (per-worker caches, unpickled shm objects, architecture builds).

Correctness guards of warm fleets:

- **env-snapshot revalidation** -- a fleet remembers the ``REPRO_*`` snapshot
  it was forked under; a checkout under a different snapshot restarts the
  fleet (forked workers inherit the environment of their fork, and not every
  task encoding pins every knob), so a warm fleet can never serve stale
  modes.  A fleet that lost a worker is restarted the same way.  If the
  mismatch shows up while another lease is active, the checkout gets a
  private single-use fleet instead -- cold semantics, never a stale fleet.
- **idle reaping** -- a released fleet schedules its own shutdown after
  ``REPRO_POOL_IDLE_S`` seconds without a lease, bounding resident workers.
- **explicit stop** -- :func:`stop_pools` (registered with ``atexit``) tears
  everything down; a forked child starts with an empty registry, so workers
  never shut down the parent's fleets.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import knobs
from repro.core.knobs import repro_env_snapshot
from repro.exec.cluster import ClusterCoordinator, fork_workers

POOL_ENV = "REPRO_POOL"
POOL_IDLE_ENV = "REPRO_POOL_IDLE_S"

Lease = Tuple[ClusterCoordinator, Callable[[], None]]


def pool_mode() -> str:
    """The effective ``REPRO_POOL`` value (``warm`` or ``cold``)."""
    return knobs.value(POOL_ENV)


def _idle_seconds() -> float:
    return float(knobs.value(POOL_IDLE_ENV))


def lease(jobs: int, limit: Optional[int] = None) -> Lease:
    """A fleet of local workers for one dispatch scope: ``(fleet, release)``.

    The caller must invoke ``release()`` exactly once when its scope ends and
    must not close the fleet itself.  ``warm`` leases the shared fleet of
    ``jobs`` workers (see :func:`checkout`); ``cold`` forks a private one,
    sized down to ``limit`` when fewer tasks than workers exist.
    """
    if pool_mode() == "warm":
        return checkout(jobs)
    fleet = fork_workers(jobs if limit is None else max(1, min(jobs, limit)))
    return fleet, fleet.close


class _WarmPool:
    """One persistent fleet plus the bookkeeping that keeps it honest."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.env = repro_env_snapshot()
        self.fleet = fork_workers(jobs)
        self.leases = 0
        self.created_at = time.monotonic()
        self.last_released = time.monotonic()
        self.dispatches = 0
        self.restarts = 0
        self.reaper: Optional[threading.Timer] = None

    def serves(self, snapshot: Dict[str, str]) -> bool:
        """Whether this fleet may run work dispatched under ``snapshot``."""
        return self.env == snapshot and self.fleet.worker_count == self.jobs

    def cancel_reaper(self) -> None:
        if self.reaper is not None:
            self.reaper.cancel()
            self.reaper = None


_POOLS: Dict[int, _WarmPool] = {}
_LOCK = threading.Lock()


def _forget_pools_in_child() -> None:
    """A forked child owns none of its parent's fleets (and may have been
    forked while another thread held the lock)."""
    global _LOCK
    _LOCK = threading.Lock()
    with _LOCK:
        _POOLS.clear()


os.register_at_fork(after_in_child=_forget_pools_in_child)


def checkout(jobs: int) -> Lease:
    """Lease the warm fleet for ``jobs`` workers: ``(fleet, release)``.

    Leases are re-entrant across threads (the coordinator serializes rounds),
    and the fleet is created -- or restarted, when the ``REPRO_*`` snapshot
    moved or a worker died -- on demand.
    """
    snapshot = repro_env_snapshot()
    with _LOCK:
        pool = _POOLS.get(jobs)
        restarted = False
        if pool is not None and not pool.serves(snapshot):
            if pool.leases:
                # Another lease is mid-flight on this fleet; serve this caller
                # a private cold fleet rather than restarting a busy one.
                private = fork_workers(jobs)
                return private, private.close
            pool.cancel_reaper()
            _stop(pool, wait=True)
            _POOLS.pop(jobs, None)
            pool = None
            restarted = True
        if pool is None:
            pool = _WarmPool(jobs)
            if restarted:
                pool.restarts += 1
            _POOLS[jobs] = pool
        pool.cancel_reaper()
        pool.leases += 1
        pool.dispatches += 1

    released = threading.Event()

    def release() -> None:
        if released.is_set():
            return
        released.set()
        with _LOCK:
            if _POOLS.get(jobs) is not pool:
                return
            pool.leases -= 1
            pool.last_released = time.monotonic()
            if pool.leases == 0:
                _schedule_reap_locked(pool)

    return pool.fleet, release


def _schedule_reap_locked(pool: _WarmPool) -> None:
    idle_s = _idle_seconds()
    if idle_s <= 0:
        return
    pool.cancel_reaper()
    timer = threading.Timer(idle_s, _reap, args=(pool,))
    timer.daemon = True
    pool.reaper = timer
    timer.start()


def _reap(pool: _WarmPool) -> None:
    with _LOCK:
        if _POOLS.get(pool.jobs) is not pool or pool.leases > 0:
            return
        _POOLS.pop(pool.jobs, None)
    _stop(pool, wait=True)


def _stop(pool: _WarmPool, wait: bool) -> None:
    try:
        pool.fleet.close(wait=wait)
    except Exception:  # pragma: no cover - interpreter-teardown races
        pass


def stop_pools(wait: bool = True) -> int:
    """Shut down every warm fleet this process owns; returns how many stopped."""
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.cancel_reaper()
        _stop(pool, wait=wait)
    return len(pools)


def pool_status() -> List[Dict[str, object]]:
    """One record per live warm fleet in this process."""
    now = time.monotonic()
    with _LOCK:
        return [
            {
                "jobs": pool.jobs,
                "leases": pool.leases,
                "dispatches": pool.dispatches,
                "restarts": pool.restarts,
                "age_s": round(now - pool.created_at, 3),
                "idle_s": round(now - pool.last_released, 3) if pool.leases == 0 else 0.0,
            }
            for _jobs, pool in sorted(_POOLS.items())
        ]


atexit.register(stop_pools, wait=False)
