"""Machine-readable performance benchmarking of registered scenarios.

``repro bench`` times scenarios from the registry -- warmup runs followed by
timed repeats, each against a fresh private :class:`EvaluationCache` and no
result store, so every repeat measures real engine work -- and writes a
versioned JSON report (``bench.json`` in the working directory by default,
an untracked scratch name; committed ``BENCH_*.json`` files are written only
on purpose with ``--output``).

Schema ``repro-bench/3`` makes every timing block self-describing:

- ``knobs`` records the active perf knobs (``REPRO_DTYPE``,
  ``REPRO_MC_TRIALS``) so entries from different modes are never compared
  apples-to-oranges;
- ``stages_s`` / ``stage_fractions`` attribute the Monte Carlo wall-clock to
  the rng / forward / quantize / metrics stages
  (:mod:`repro.variation.stages`), recording where the *next* ceiling is.

A scenario's headline timing (the ``vectorized`` block) runs on the selected
``dtype`` mode.  When ``float32`` is selected, the bit-exact ``float64``
reference is timed alongside and ``speedup_vs_reference_median`` records the
additional speedup the single-precision path buys over it.
"""

from __future__ import annotations

import contextlib
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.engine import observe_passes
from repro.core.knobs import forced_env as _forced_env
from repro.core.knobs import raw_value as _knob_raw
from repro.exec.backends import available_cpus
from repro.onn.layers import DTYPE_MODE_ENV, dtype_mode
from repro.scenarios.registry import REGISTRY
from repro.variation.stages import StageAccumulator, observe_stages

#: Schema tag embedded in every report, bumped on incompatible layout changes.
BENCH_SCHEMA = "repro-bench/3"

#: Default output path: an untracked (gitignored) scratch report, so a plain
#: ``repro bench`` never overwrites a committed ``BENCH_*.json``.
DEFAULT_BENCH_PATH = "bench.json"

#: The bit-exact reference mode: the only mode committed scenario tables
#: reproduce under, and the baseline ``speedup_vs_reference_median`` divides by.
REFERENCE_MODE = "float64"


def _percentile(sorted_times: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sample (stable for tiny N)."""
    if not sorted_times:
        raise ValueError("no samples")
    rank = max(0, min(len(sorted_times) - 1, int(round(fraction * (len(sorted_times) - 1)))))
    return sorted_times[rank]


@dataclass
class BenchTiming:
    """Timed repeats of one scenario on one dtype mode."""

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
        DTYPE_MODE_ENV: dtype_mode(),
        "REPRO_MC_TRIALS": _knob_raw("REPRO_MC_TRIALS"),
    }


def time_scenario(
    name: str,
    repeats: int = 3,
    warmup: int = 1,
    params: Optional[Mapping[str, Any]] = None,
    dtype: Optional[str] = None,
) -> BenchTiming:
    """Time ``repeats`` fresh runs of one scenario (after ``warmup`` discards).

    Every run gets a private evaluation cache and bypasses the result store,
    so the wall-clock covers the scenario's real engine passes; the pass count,
    the final run's per-stage cache hit rates, the active perf knobs and the
    variation pipeline's per-stage wall-clock are recorded alongside the
    timings (scenarios with internal sweeps legitimately hit their own cache).

    ``dtype`` pins ``$REPRO_DTYPE`` for the measurement; ``None`` leaves the
    ambient value.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    times: List[float] = []
    passes = 0
    stats: Dict[str, Dict[str, float]] = {}
    stage_seconds = StageAccumulator()
    with _forced_env(DTYPE_MODE_ENV, dtype):
        knobs = _active_knobs()
        mode_label = knobs[DTYPE_MODE_ENV]
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
                    stack.enter_context(observe_stages(stage_seconds))
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
        stages_s=stage_seconds.totals(),
    )


def bench_scenarios(
    names: Sequence[str],
    repeats: int = 3,
    warmup: int = 1,
    params: Optional[Mapping[str, Any]] = None,
    dtype: Optional[str] = None,
) -> Dict[str, Any]:
    """Benchmark ``names`` and return the JSON-ready report payload.

    The headline ``vectorized`` timing runs on the requested ``dtype`` mode
    (default: the ambient environment, normally the bit-exact ``float64``
    reference).  When that is not the reference mode, each scenario is *also*
    timed on the reference mode (``reference`` block) and
    ``speedup_vs_reference_median`` records reference median / headline
    median -- the additional speedup float32 buys over the bit-exact contract.
    """
    scenarios: Dict[str, Any] = {}
    for name in names:
        vectorized = time_scenario(
            name, repeats=repeats, warmup=warmup, params=params, dtype=dtype,
        )
        entry: Dict[str, Any] = {"vectorized": asdict(vectorized)}
        # Scenarios that never enter the Monte Carlo pipeline (no rng/forward/
        # quantize/metrics stage time) are pure analytic table computations:
        # the dtype throughput mode cannot change their wall-clock, so a
        # "reference comparison" would only record sub-millisecond timer
        # jitter as a fake speedup (BENCH_PR6 recorded 0.88-0.95x noise for
        # fig10a/fig6/fig7/table1).  Mark them instead of timing a
        # meaningless baseline.
        analytic_only = not vectorized.stages_s
        entry["analytic_only"] = analytic_only
        if vectorized.mode != REFERENCE_MODE and not analytic_only:
            reference = time_scenario(
                name, repeats=repeats, warmup=warmup, params=params,
                dtype=REFERENCE_MODE,
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
            "dtype_env": DTYPE_MODE_ENV,
            "dtype": dtype,
        },
        "scenarios": scenarios,
    }


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
                # throughput mode to speed up, so no ratio is recorded.
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
