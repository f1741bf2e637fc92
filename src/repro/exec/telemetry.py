"""Mergeable execution telemetry shared by every backend consumer.

Both orchestration layers (:class:`~repro.scenarios.runner.BatchRunner` and
:class:`~repro.explore.dse.DesignSpaceExplorer`) report how much engine work an
execution actually performed: per-pass wall-clock (:class:`PassTiming`) and the
evaluation cache's hit/miss counters.  Under the in-process backends these are
observed directly; under the task-shipping backends (:mod:`repro.exec.cluster`)
each worker measures its own share and ships a picklable snapshot back, which the
parent folds together with :func:`merge_pass_timings` /
:func:`merge_cache_stats` so the report looks the same regardless of backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

from repro.core.cache import CacheStats, EvaluationCache


@dataclass
class PassTiming:
    """Accumulated wall-clock of one engine pass (stage) across an execution."""

    count: int = 0
    total_s: float = 0.0

    def add(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s

    @property
    def mean_ms(self) -> float:
        return self.total_s * 1e3 / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PassTiming(count={self.count}, total_s={self.total_s:.4f})"


def merge_pass_timings(
    parts: Iterable[Mapping[str, PassTiming]],
) -> Dict[str, PassTiming]:
    """Fold per-worker pass-timing maps into one ``{stage: PassTiming}``."""
    merged: Dict[str, PassTiming] = {}
    for timings in parts:
        for stage, timing in timings.items():
            into = merged.setdefault(stage, PassTiming())
            into.count += timing.count
            into.total_s += timing.total_s
    return merged


def merge_cache_stats(
    parts: Iterable[Mapping[str, CacheStats]],
) -> Dict[str, CacheStats]:
    """Fold per-worker cache hit/miss maps into one ``{stage: CacheStats}``."""
    merged: Dict[str, CacheStats] = {}
    for stats in parts:
        for stage, stat in stats.items():
            into = merged.setdefault(stage, CacheStats())
            into.hits += stat.hits
            into.misses += stat.misses
            into.evictions += stat.evictions
    return merged


def scoped_pass_observer(cache: EvaluationCache, telemetry: "WorkerTelemetry", lock=None):
    """An ``observe_passes`` callback counting only engines bound to ``cache``.

    Cache identity is the scoping rule everywhere (batch runner, explorer,
    process workers): it attributes engine passes to the orchestration layer
    that owns the cache, so concurrent runners/explorers -- or an enclosing
    observed test -- never cross-contaminate each other's counts.  Pass a
    ``lock`` when engines may run on multiple threads; worker processes run
    tasks sequentially and can skip it.
    """

    def record(stage: str, elapsed_s: float) -> None:
        telemetry.engine_passes += 1
        telemetry.pass_timings.setdefault(stage, PassTiming()).add(elapsed_s)

    def observe(stage: str, engine: object, elapsed_s: float) -> None:
        if getattr(engine, "cache", None) is not cache:
            return
        if lock is not None:
            with lock:
                record(stage, elapsed_s)
        else:
            record(stage, elapsed_s)

    return observe


def cache_stats_snapshot(cache: EvaluationCache) -> Dict[str, Tuple[int, int, int]]:
    """Cheap ``{stage: (hits, misses, evictions)}`` snapshot for delta computation."""
    return {stage: (s.hits, s.misses, s.evictions) for stage, s in cache.stats.items()}


def cache_stats_delta(
    cache: EvaluationCache, before: Mapping[str, Tuple[int, ...]]
) -> Dict[str, CacheStats]:
    """Hit/miss/eviction growth since ``before`` -- one task's telemetry share.

    Workers share one cache across the tasks they execute, so returning deltas
    (instead of cumulative totals) keeps the parent's merge double-count-free.
    """
    delta: Dict[str, CacheStats] = {}
    for stage, stats in cache.stats.items():
        base = tuple(before.get(stage, ())) + (0, 0, 0)
        hits = stats.hits - base[0]
        misses = stats.misses - base[1]
        evictions = stats.evictions - base[2]
        if hits or misses or evictions:
            delta[stage] = CacheStats(hits=hits, misses=misses, evictions=evictions)
    return delta


def render_pass_timings(timings: Mapping[str, PassTiming]) -> str:
    """One line per stage: ``stage: N passes, total ms (mean ms)``."""
    lines = [
        f"  {stage:16s} {t.count:4d} passes  {t.total_s * 1e3:9.2f} ms total"
        f"  ({t.mean_ms:.3f} ms/pass)"
        for stage, t in sorted(timings.items())
    ]
    return "\n".join(lines)


@dataclass
class WorkerTelemetry:
    """Picklable telemetry snapshot one process-backend worker returns.

    ``engine_passes`` counts executed pipeline stages; ``pass_timings`` and
    ``cache_stats`` are the *deltas* attributable to the tasks the worker ran
    (not cumulative totals, so merging never double-counts).
    """

    engine_passes: int = 0
    pass_timings: Dict[str, PassTiming] = field(default_factory=dict)
    cache_stats: Dict[str, CacheStats] = field(default_factory=dict)

    def merge_into(self, other: "WorkerTelemetry") -> None:
        other.engine_passes += self.engine_passes
        other.pass_timings = merge_pass_timings([other.pass_timings, self.pass_timings])
        other.cache_stats = merge_cache_stats([other.cache_stats, self.cache_stats])
