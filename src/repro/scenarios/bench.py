"""Machine-readable performance benchmarking of registered scenarios.

``repro bench`` times scenarios from the registry -- warmup runs followed by
timed repeats, each against a fresh private :class:`EvaluationCache` and no
result store, so every repeat measures real engine work -- and writes a
versioned JSON report (``bench.json`` in the working directory by default,
an untracked scratch name; committed ``BENCH_*.json`` files are written only
on purpose with ``--output``).

Schema ``repro-bench/2`` makes every timing block self-describing:

- ``knobs`` records the active perf knobs (``REPRO_RNG``, ``REPRO_DTYPE``,
  ``REPRO_MC_TRIALS``) so entries from different modes are never compared
  apples-to-oranges;
- ``stages_s`` / ``stage_fractions`` attribute the Monte Carlo wall-clock to
  the rng / forward / quantize / metrics stages
  (:mod:`repro.variation.stages`), recording where the *next* ceiling is.

A scenario's headline timing (the ``vectorized`` block) runs on the selected
``rng`` / ``dtype`` throughput modes.  When a non-reference rng or dtype is
selected, the bit-exact reference mode (``seedseq`` + ``float64``) is timed
alongside and ``speedup_vs_reference_median`` records the additional speedup
the fast path buys over it.  Backend comparisons (cluster scaling, process
dispatch) select the backend through the scenario's ``backend``/``jobs``
parameters.
"""

from __future__ import annotations

import contextlib
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.engine import observe_passes
from repro.core.knobs import forced_env as _forced_env
from repro.core.knobs import raw_value as _knob_raw
from repro.exec.backends import available_cpus
from repro.onn.layers import DTYPE_MODE_ENV, dtype_mode
from repro.scenarios.registry import REGISTRY
from repro.variation.sampler import RNG_MODE_ENV, rng_mode
from repro.variation.stages import StageAccumulator, observe_stages

#: Schema tag embedded in every report, bumped on incompatible layout changes.
BENCH_SCHEMA = "repro-bench/2"

#: Default output path: an untracked (gitignored) scratch report, so a plain
#: ``repro bench`` never overwrites a committed ``BENCH_*.json``.
DEFAULT_BENCH_PATH = "bench.json"

#: The bit-exact reference mode: the only mode committed scenario tables
#: reproduce under, and the baseline ``speedup_vs_reference_median`` divides by.
REFERENCE_MODE = ("seedseq", "float64")


def _percentile(sorted_times: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sample (stable for tiny N)."""
    if not sorted_times:
        raise ValueError("no samples")
    rank = max(0, min(len(sorted_times) - 1, int(round(fraction * (len(sorted_times) - 1)))))
    return sorted_times[rank]


@dataclass
class BenchTiming:
    """Timed repeats of one scenario on one (rng, dtype) mode."""

    mode: str
    repeats: int
    warmup: int
    times_s: List[float] = field(default_factory=list)
    median_s: float = 0.0
    p90_s: float = 0.0
    min_s: float = 0.0
    mean_s: float = 0.0
    engine_passes: int = 0
    cache_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Active perf knobs at measurement time (self-describing entries).
    knobs: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Per-stage wall-clock totals over the timed repeats (absent stages ran 0s).
    stages_s: Dict[str, float] = field(default_factory=dict)
    #: Each stage's fraction of the total timed wall-clock.
    stage_fractions: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_times(
        cls,
        mode: str,
        warmup: int,
        times_s: Sequence[float],
        engine_passes: int,
        cache_stats: Mapping[str, Mapping[str, float]],
        knobs: Optional[Mapping[str, Optional[str]]] = None,
        stages_s: Optional[Mapping[str, float]] = None,
    ) -> "BenchTiming":
        ordered = sorted(times_s)
        total = float(sum(times_s))
        stages = {k: float(v) for k, v in (stages_s or {}).items()}
        return cls(
            mode=mode,
            repeats=len(ordered),
            warmup=warmup,
            times_s=[float(t) for t in times_s],
            median_s=_percentile(ordered, 0.5),
            p90_s=_percentile(ordered, 0.9),
            min_s=ordered[0],
            mean_s=float(sum(ordered) / len(ordered)),
            engine_passes=int(engine_passes),
            cache_stats={k: dict(v) for k, v in cache_stats.items()},
            knobs=dict(knobs or {}),
            stages_s=stages,
            stage_fractions={
                k: (v / total if total > 0 else 0.0) for k, v in stages.items()
            },
        )


def _active_knobs() -> Dict[str, Optional[str]]:
    """The resolved perf modes plus the raw trial-count override."""
    return {
        RNG_MODE_ENV: rng_mode(),
        DTYPE_MODE_ENV: dtype_mode(),
        "REPRO_MC_TRIALS": _knob_raw("REPRO_MC_TRIALS"),
    }


def time_scenario(
    name: str,
    repeats: int = 3,
    warmup: int = 1,
    params: Optional[Mapping[str, Any]] = None,
    rng: Optional[str] = None,
    dtype: Optional[str] = None,
) -> BenchTiming:
    """Time ``repeats`` fresh runs of one scenario (after ``warmup`` discards).

    Every run gets a private evaluation cache and bypasses the result store,
    so the wall-clock covers the scenario's real engine passes; the pass count,
    the final run's per-stage cache hit rates, the active perf knobs and the
    variation pipeline's per-stage wall-clock are recorded alongside the
    timings (scenarios with internal sweeps legitimately hit their own cache).

    ``rng`` / ``dtype`` pin ``$REPRO_RNG`` / ``$REPRO_DTYPE`` for the
    measurement; ``None`` leaves the ambient value.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    times: List[float] = []
    passes = 0
    stats: Dict[str, Dict[str, float]] = {}
    stage_totals = StageAccumulator()
    with _forced_env(RNG_MODE_ENV, rng), _forced_env(DTYPE_MODE_ENV, dtype):
        knobs = _active_knobs()
        mode_label = f"{knobs[RNG_MODE_ENV]}/{knobs[DTYPE_MODE_ENV]}"
        for round_index in range(warmup + repeats):
            cache = EvaluationCache()
            pass_count = 0

            def count(stage: str, engine: object, elapsed_s: float) -> None:
                nonlocal pass_count
                if getattr(engine, "cache", None) is cache:
                    pass_count += 1

            timed = round_index >= warmup
            with contextlib.ExitStack() as stack:
                stack.enter_context(observe_passes(count))
                if timed:
                    # Stage observation only on timed rounds: identical
                    # instrumentation overhead in every mode's numbers.
                    stack.enter_context(observe_stages(stage_totals))
                start = time.perf_counter()
                REGISTRY.run(name, params=params, cache=cache, store=None, force=True)
                elapsed = time.perf_counter() - start
            if timed:
                times.append(elapsed)
                passes = pass_count
                stats = {
                    stage: {
                        "hits": stat.hits,
                        "misses": stat.misses,
                        "hit_rate": stat.hit_rate,
                    }
                    for stage, stat in cache.stats.items()
                }
    return BenchTiming.from_times(
        mode_label, warmup, times, passes, stats, knobs=knobs,
        stages_s=stage_totals.totals(),
    )


def bench_scenarios(
    names: Sequence[str],
    repeats: int = 3,
    warmup: int = 1,
    params: Optional[Mapping[str, Any]] = None,
    rng: Optional[str] = None,
    dtype: Optional[str] = None,
) -> Dict[str, Any]:
    """Benchmark ``names`` and return the JSON-ready report payload.

    The headline ``vectorized`` timing runs on the requested ``rng`` / ``dtype``
    modes (defaults: the ambient environment, normally the bit-exact reference).
    When the requested rng/dtype differ from the reference mode, each scenario
    is *also* timed on the reference mode (``reference`` block) and
    ``speedup_vs_reference_median`` records reference median / headline
    median -- the additional speedup the selected throughput mode buys over
    the bit-exact contract.
    """
    scenarios: Dict[str, Any] = {}
    for name in names:
        vectorized = time_scenario(
            name, repeats=repeats, warmup=warmup, params=params, rng=rng, dtype=dtype,
        )
        entry: Dict[str, Any] = {"vectorized": asdict(vectorized)}
        # Scenarios that never enter the Monte Carlo pipeline (no rng/forward/
        # quantize/metrics stage time) are pure analytic table computations:
        # the rng/dtype throughput modes cannot change their wall-clock, so a
        # "reference comparison" would only record sub-millisecond timer
        # jitter as a fake speedup (BENCH_PR6 recorded 0.88-0.95x noise for
        # fig10a/fig6/fig7/table1).  Mark them instead of timing a
        # meaningless baseline.
        analytic_only = not vectorized.stages_s
        entry["analytic_only"] = analytic_only
        selected = (vectorized.knobs[RNG_MODE_ENV], vectorized.knobs[DTYPE_MODE_ENV])
        if selected != REFERENCE_MODE and not analytic_only:
            reference = time_scenario(
                name, repeats=repeats, warmup=warmup, params=params,
                rng="seedseq", dtype="float64",
            )
            entry["reference"] = asdict(reference)
            entry["speedup_vs_reference_median"] = (
                reference.median_s / vectorized.median_s
                if vectorized.median_s > 0
                else 0.0
            )
        scenarios[name] = entry
    return {
        "schema": BENCH_SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpus": available_cpus(),
        },
        "settings": {
            "repeats": repeats,
            "warmup": warmup,
            "params": dict(params or {}),
            "rng_env": RNG_MODE_ENV,
            "dtype_env": DTYPE_MODE_ENV,
            "rng": rng,
            "dtype": dtype,
        },
        "scenarios": scenarios,
    }


def _on_backend(
    params: Optional[Mapping[str, Any]], backend: str, jobs: int
) -> Dict[str, Any]:
    """``params`` with the scenario's ``backend``/``jobs`` parameters set."""
    return {**(params or {}), "backend": backend, "jobs": jobs}


def bench_cluster_scaling(
    name: str,
    worker_counts: Sequence[int] = (1, 2),
    repeats: int = 3,
    warmup: int = 1,
    params: Optional[Mapping[str, Any]] = None,
    rng: Optional[str] = None,
    dtype: Optional[str] = None,
    wait_s: float = 60.0,
) -> Dict[str, Any]:
    """Time one scenario serially and on localhost clusters of growing size.

    For every worker count a *fresh* coordinator is started on an ephemeral
    port and exactly that many ``repro worker`` subprocesses are spawned and
    torn down, so each measurement sees precisely the fleet it claims
    (persistent workers from a previous count can never inflate a later one).
    The backend reaches the scenario through its ``backend``/``jobs``
    parameters, so ``name`` must declare them.  Returns the
    ``cluster_scaling`` payload block: the serial baseline plus a
    ``workers -> timing`` map with ``speedup_vs_serial_median`` ratios -- the
    workers x wall-clock record BENCH_PR7 tracks.

    Localhost workers share the host's cores, so the recorded scaling is a
    lower bound dominated by per-round shipping overhead; the same knobs point
    the backend at real remote hosts.
    """
    from repro.exec.cluster import (
        CLUSTER_HOST_ENV,
        CLUSTER_PORT_ENV,
        coordinator_for,
        spawn_local_workers,
    )

    counts = sorted(set(int(c) for c in worker_counts))
    if not counts or counts[0] < 1:
        raise ValueError(f"worker counts must be positive, got {worker_counts!r}")
    serial = time_scenario(
        name, repeats=repeats, warmup=warmup,
        params=_on_backend(params, "serial", 0), rng=rng, dtype=dtype,
    )
    block: Dict[str, Any] = {
        "scenario": name,
        "serial": asdict(serial),
        "cluster": {},
    }
    for count in counts:
        coordinator = coordinator_for("127.0.0.1", 0)
        processes = spawn_local_workers(count, coordinator.host, coordinator.port)
        try:
            coordinator.wait_for_workers(count, wait_s)
            with _forced_env(CLUSTER_HOST_ENV, coordinator.host), _forced_env(
                CLUSTER_PORT_ENV, str(coordinator.port)
            ):
                timing = time_scenario(
                    name, repeats=repeats, warmup=warmup,
                    params=_on_backend(params, "cluster", count), rng=rng, dtype=dtype,
                )
        finally:
            coordinator.close("shutdown")
            for process in processes:
                try:
                    process.wait(timeout=10)
                except Exception:  # noqa: BLE001 - last resort below
                    process.terminate()
                    process.wait(timeout=10)
        entry = asdict(timing)
        entry["workers"] = count
        entry["speedup_vs_serial_median"] = (
            serial.median_s / timing.median_s if timing.median_s > 0 else 0.0
        )
        block["cluster"][str(count)] = entry
    return block


#: The dispatch configurations ``bench_dispatch_comparison`` times, in order:
#: the pre-warm-pool baseline, the persistent pool alone, and the pool plus
#: shared-memory task transport.
DISPATCH_MODES: Tuple[Tuple[str, str, str], ...] = (
    ("cold", "cold", "off"),
    ("warm", "warm", "off"),
    ("warm_shm", "warm", "on"),
)


def bench_dispatch_comparison(
    name: str = "variation_robustness",
    repeats: int = 3,
    warmup: int = 1,
    jobs: Optional[int] = None,
    params: Optional[Mapping[str, Any]] = None,
    rng: Optional[str] = None,
    dtype: Optional[str] = None,
) -> Dict[str, Any]:
    """Time one scenario serially and under each process-dispatch configuration.

    Runs the scenario with ``backend=processes`` (and ``jobs``; 0 or ``None``
    means one worker per core) and sweeps ``(REPRO_POOL, REPRO_SHM)``
    through :data:`DISPATCH_MODES`: the cold-pool baseline forks its
    workers on every run, ``warm`` reuses one persistent pool across the timed
    repeats (the warmup round absorbs the one-time spin-up), and ``warm_shm``
    additionally ships task arrays as shared-memory digests instead of
    pickles.  Every entry records ``speedup_vs_serial_median`` against the
    same-knobs serial baseline and ``dispatch_overhead_s`` -- the ``dispatch``
    stage total: backend wall-clock not attributable to any worker compute
    stage (spin-up, pickling, IPC, idle gaps).  Warm pools are stopped between
    modes so each configuration measures exactly the fleet it claims.
    """
    from repro.exec.pool import stop_pools

    serial = time_scenario(
        name, repeats=repeats, warmup=warmup,
        params=_on_backend(params, "serial", 0), rng=rng, dtype=dtype,
    )
    processes = _on_backend(params, "processes", jobs or 0)
    block: Dict[str, Any] = {
        "scenario": name,
        "serial": asdict(serial),
        "dispatch": {},
    }
    for label, pool, shm in DISPATCH_MODES:
        stop_pools()
        try:
            with _forced_env("REPRO_POOL", pool), _forced_env("REPRO_SHM", shm):
                timing = time_scenario(
                    name, repeats=repeats, warmup=warmup, params=processes,
                    rng=rng, dtype=dtype,
                )
        finally:
            stop_pools()
        entry = asdict(timing)
        entry["pool"] = pool
        entry["shm"] = shm
        entry["speedup_vs_serial_median"] = (
            serial.median_s / timing.median_s if timing.median_s > 0 else 0.0
        )
        entry["dispatch_overhead_s"] = float(timing.stages_s.get("dispatch", 0.0))
        block["dispatch"][label] = entry
    return block


def write_bench_report(
    payload: Mapping[str, Any], path: Union[str, Path] = DEFAULT_BENCH_PATH
) -> Path:
    """Write the report as stable, diff-friendly JSON and return its path."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def check_speedups(
    payload: Mapping[str, Any], thresholds: Mapping[str, float]
) -> List[str]:
    """Gate each scenario's ``speedup_vs_reference_median`` (the throughput
    mode's speedup over the bit-exact reference) at a minimum factor.

    Returns human-readable violation messages (empty = all thresholds met).
    Scenarios without a recorded comparison fail loudly -- a gate against a
    missing comparison must never silently pass CI.
    """
    key = "speedup_vs_reference_median"
    failures = []
    for name, minimum in thresholds.items():
        entry = payload.get("scenarios", {}).get(name)
        if entry is None:
            failures.append(f"{name}: not benchmarked")
            continue
        speedup = entry.get(key)
        if speedup is None:
            if entry.get("analytic_only"):
                # Deterministic config error, not a jitter-dependent flake: an
                # analytic scenario has no Monte Carlo stage work for the
                # throughput modes to speed up, so no ratio is recorded.
                failures.append(
                    f"{name}: analytic-only scenario (no Monte Carlo stage "
                    "work), no reference ratio is recorded -- drop this "
                    "--fail-below-ref gate"
                )
            else:
                failures.append(f"{name}: no reference-mode comparison recorded")
        elif speedup < minimum:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below the "
                f"required {minimum:.2f}x ({key})"
            )
    return failures
