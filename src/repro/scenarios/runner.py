"""Batch execution of registered scenarios over a pluggable execution backend.

The :class:`BatchRunner` is the engine room behind ``python -m repro batch``:

- one :class:`~repro.core.cache.EvaluationCache` is shared by every scenario in
  the batch (per worker process under the process backend), so scenarios that
  touch the same templates/workloads reuse each other's engine passes;
- the persistent :class:`~repro.scenarios.store.ResultStore` is consulted per
  scenario, so an unchanged scenario is a cross-process cache hit that executes
  *zero* engine passes; under the process backend the parent prefetches stored
  artifacts so workers are never even spawned for them (warm start);
- the execution backend (:mod:`repro.exec`) decides how fresh scenarios run:
  inline (``serial``), on a thread pool (``threads``), or on a process pool
  (``processes``) that sidesteps the GIL.  Results keep request order and are
  byte-identical across backends.

Pass accounting is per-runner: each runner counts only the passes of engines
bound to *its* evaluation cache (via :func:`repro.core.engine.observe_passes`),
so concurrent runners -- or a runner inside an observed test -- never
cross-contaminate each other's ``engine_passes``.  Under the process backend
each worker counts its own share and the parent merges the telemetry.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache import CacheStats, EvaluationCache
from repro.core.engine import observe_passes
from repro.core.report import format_table
from repro.exec import (
    ExecutionBackend,
    PassTiming,
    WorkerTelemetry,
    applied_env_snapshot,
    cache_stats_delta,
    cache_stats_snapshot,
    render_pass_timings,
    repro_env_snapshot,
    resolve_backend,
    scoped_pass_observer,
)
from repro.scenarios.registry import REGISTRY, ScenarioRegistry
from repro.scenarios.spec import ScenarioResult
from repro.scenarios.store import ResultStore


@dataclass
class BatchItem:
    """Outcome of one scenario within a batch."""

    name: str
    result: Optional[ScenarioResult] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def from_store(self) -> bool:
        return self.result is not None and self.result.from_store


@dataclass
class BatchReport:
    """All batch items plus batch-level accounting.

    ``engine_passes`` / ``pass_timings`` / ``cache_stats`` cover the engine
    work bound to the batch-shared evaluation cache (the ``ScenarioContext``
    plumbing: ``ctx.simulate`` / ``ctx.explorer``), merged across workers when
    the batch ran on the process backend.  The cache-identity scoping is what
    keeps concurrent runners from cross-contaminating each other; its flip side
    is that engines a scenario builds on a *private* cache are excluded from
    these counters.  The store-hit contract is unaffected: a fully
    store-served batch reports ``engine_passes == 0``.
    """

    items: List[BatchItem] = field(default_factory=list)
    engine_passes: int = 0
    elapsed_s: float = 0.0
    cache: Optional[EvaluationCache] = None
    backend: str = "serial"
    jobs: int = 1
    pass_timings: Dict[str, PassTiming] = field(default_factory=dict)
    cache_stats: Dict[str, CacheStats] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def all_from_store(self) -> bool:
        return bool(self.items) and all(item.from_store for item in self.items if item.ok)

    def item(self, name: str) -> BatchItem:
        for item in self.items:
            if item.name == name:
                return item
        raise KeyError(f"no batch item named {name!r}")

    def summary_table(self) -> str:
        rows = []
        for item in self.items:
            if not item.ok:
                status = "ERROR"
            elif item.from_store:
                status = "store hit"
            else:
                status = "ran"
            rows.append((item.name, status, f"{item.elapsed_s * 1e3:.1f}"))
        table = format_table(["scenario", "status", "wall-clock (ms)"], rows)
        lines = [
            table,
            "",
            f"backend: {self.backend} ({self.jobs} jobs)",
            f"engine passes executed: {self.engine_passes}",
        ]
        if self.pass_timings:
            lines.append("per-pass wall-clock:")
            lines.append(render_pass_timings(self.pass_timings))
        lines.append(f"batch wall-clock: {self.elapsed_s:.2f} s")
        return "\n".join(lines)


# -- process-backend worker protocol ---------------------------------------------------


@dataclass(frozen=True)
class _ProcessBatchContext:
    """Picklable per-batch context shipped to every worker chunk.

    ``env`` snapshots the parent's ``REPRO_*`` environment at encoding time:
    process-pool workers inherit the parent env anyway, but cluster workers
    may live on another host with a different shell environment, and the
    scenario tables must be a function of the *parent's* modes.
    """

    store_root: Optional[str]
    force: bool
    env: Optional[Dict[str, str]] = None


@dataclass
class _BatchTaskOutcome:
    """Picklable per-task return: the item plus the worker's telemetry delta."""

    item: BatchItem
    telemetry: WorkerTelemetry


#: One evaluation cache per worker process, shared by every scenario that
#: worker executes (the process-pool analogue of the runner's shared cache).
_WORKER_CACHE: Optional[EvaluationCache] = None


def _worker_cache() -> EvaluationCache:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = EvaluationCache()
    return _WORKER_CACHE


def _run_batch_task(shared: _ProcessBatchContext, name: str) -> _BatchTaskOutcome:
    """Run one scenario inside a worker process.

    Tasks within one worker run sequentially, so the per-worker cache and the
    plain counters need no locking; telemetry is returned as a delta so the
    parent's merge never double-counts the cache shared across tasks.
    """
    cache = _worker_cache()
    store = ResultStore(shared.store_root) if shared.store_root is not None else None
    stats_before = cache_stats_snapshot(cache)
    telemetry = WorkerTelemetry()
    start = time.perf_counter()
    with applied_env_snapshot(shared.env), observe_passes(
        scoped_pass_observer(cache, telemetry)
    ):
        try:
            result = REGISTRY.run(name, cache=cache, store=store, force=shared.force)
            # extras hold live objects (simulation results, floorplans) that are
            # neither picklable nor meaningful across the process boundary.
            item = BatchItem(
                name=name,
                result=dataclasses.replace(result, extras={}),
                elapsed_s=time.perf_counter() - start,
            )
        except Exception as exc:  # noqa: BLE001 - reported per item, batch continues
            item = BatchItem(
                name=name,
                error=f"{type(exc).__name__}: {exc}",
                elapsed_s=time.perf_counter() - start,
            )
    telemetry.cache_stats = cache_stats_delta(cache, stats_before)
    return _BatchTaskOutcome(item=item, telemetry=telemetry)


# -- the runner ------------------------------------------------------------------------


class BatchRunner:
    """Run one or many registered scenarios through a shared cache and store."""

    def __init__(
        self,
        registry: ScenarioRegistry = REGISTRY,
        store: Optional[ResultStore] = None,
        cache: Optional[EvaluationCache] = None,
        max_workers: Optional[int] = None,
        force: bool = False,
        backend: object = None,
        jobs: Optional[int] = None,
    ) -> None:
        """``backend`` is an :class:`~repro.exec.ExecutionBackend`, a name
        (``serial``/``threads``/``processes``) or None; ``jobs`` sizes the
        worker pool.  ``max_workers`` is the legacy alias for ``jobs`` (kept
        for the pre-backend thread-pool API)."""
        if jobs is None:
            jobs = max_workers
        self.backend: ExecutionBackend = resolve_backend(backend, jobs)
        if self.backend.ships_tasks:
            if registry is not REGISTRY:
                raise ValueError(
                    f"the {self.backend.name} backend runs scenarios from the "
                    "module-global registry (workers re-import it); custom "
                    "registries need the serial or thread backend"
                )
            if cache is not None:
                raise ValueError(
                    f"the {self.backend.name} backend cannot share an in-memory "
                    "evaluation cache across workers (each worker keeps its "
                    "own); pass cache= only with the serial or thread backend"
                )
        self.registry = registry
        self.store = store
        self.cache = cache if cache is not None else EvaluationCache()
        self.max_workers = jobs
        self.force = force

    def _run_one(self, name: str) -> BatchItem:
        start = time.perf_counter()
        try:
            result = self.registry.run(
                name, cache=self.cache, store=self.store, force=self.force
            )
            return BatchItem(
                name=name, result=result, elapsed_s=time.perf_counter() - start
            )
        except Exception as exc:  # noqa: BLE001 - reported per item, batch continues
            return BatchItem(
                name=name,
                error=f"{type(exc).__name__}: {exc}",
                elapsed_s=time.perf_counter() - start,
            )

    # -- in-process execution (serial / threads) ---------------------------------------
    def _run_inprocess(
        self, names: List[str]
    ) -> Tuple[List[BatchItem], WorkerTelemetry]:
        telemetry = WorkerTelemetry()
        stats_before = cache_stats_snapshot(self.cache)
        # Only this runner's engines: scenario builds receive the runner's
        # shared cache, so cache identity scopes the count per runner even
        # when other runners (or observed tests) execute concurrently.
        count_pass = scoped_pass_observer(self.cache, telemetry, lock=threading.Lock())

        with observe_passes(count_pass):
            items = self.backend.map_tasks(
                lambda _shared, name: self._run_one(name), names
            )
        telemetry.cache_stats = cache_stats_delta(self.cache, stats_before)
        return items, telemetry

    # -- process-pool execution --------------------------------------------------------
    def _prefetch_from_store(
        self, names: List[str]
    ) -> Tuple[Dict[str, BatchItem], List[str]]:
        """Serve stored artifacts from the parent; ship only misses to workers."""
        hits: Dict[str, BatchItem] = {}
        misses: List[str] = []
        if self.store is None or self.force:
            return hits, list(names)
        for name in names:
            start = time.perf_counter()
            try:
                stored = self.store.load(name, self.registry.fingerprint(name))
            except Exception:  # noqa: BLE001 - workers re-raise it per item
                stored = None
            if stored is not None:
                hits[name] = BatchItem(
                    name=name, result=stored, elapsed_s=time.perf_counter() - start
                )
            else:
                misses.append(name)
        return hits, misses

    def _run_processes(
        self, names: List[str]
    ) -> Tuple[List[BatchItem], WorkerTelemetry]:
        telemetry = WorkerTelemetry()
        prefetched, to_run = self._prefetch_from_store(names)
        shared = _ProcessBatchContext(
            store_root=str(self.store.root) if self.store is not None else None,
            force=self.force,
            env=repro_env_snapshot(),
        )
        outcomes = self.backend.map_tasks(_run_batch_task, to_run, shared=shared)
        computed: Dict[str, BatchItem] = {}
        for outcome in outcomes:
            computed[outcome.item.name] = outcome.item
            outcome.telemetry.merge_into(telemetry)
        items = [prefetched.get(name) or computed[name] for name in names]
        return items, telemetry

    def run(self, names: Sequence[str]) -> BatchReport:
        """Execute ``names`` on the configured backend and report per item.

        Unknown scenario names raise before anything runs; execution errors are
        captured per item so one broken scenario does not abort the batch.
        Items keep request order regardless of backend or completion order.
        """
        names = list(names)
        for name in names:
            self.registry.get(name)  # fail fast with the actionable message
        start = time.perf_counter()
        if self.backend.ships_tasks:
            items, telemetry = self._run_processes(names)
        else:
            items, telemetry = self._run_inprocess(names)
        return BatchReport(
            items=items,
            engine_passes=telemetry.engine_passes,
            elapsed_s=time.perf_counter() - start,
            cache=self.cache,
            backend=self.backend.name,
            jobs=self.backend.jobs,
            pass_timings=telemetry.pass_timings,
            cache_stats=telemetry.cache_stats,
        )
