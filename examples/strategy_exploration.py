"""Strategy-driven design-space exploration on the memoized evaluation engine.

Explores the TeMPO design space three ways -- exhaustive grid, random sampling
and coordinate descent -- sharing one evaluation cache, then reports what each
strategy found and how much of the work the engine's staged memoization reused.

Run with:  PYTHONPATH=src python examples/strategy_exploration.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import GEMMWorkload
from repro.arch import ArchitectureConfig
from repro.arch.templates import build_tempo
from repro.explore import (
    CoordinateDescent,
    DesignSpace,
    DesignSpaceExplorer,
    GridSearch,
    RandomSearch,
)
from repro.utils.format import format_table


def main() -> None:
    rng = np.random.default_rng(0)
    workload = GEMMWorkload(
        "gemm_280x28_28x280",
        m=280,
        k=28,
        n=280,
        weight_values=rng.normal(0.0, 0.25, size=(28, 280)),
        input_values=rng.normal(0.0, 0.5, size=(280, 28)),
    )
    explorer = DesignSpaceExplorer(
        build_tempo,
        [workload],
        base_config=ArchitectureConfig(num_tiles=2, cores_per_tile=2),
    )
    space = DesignSpace(
        {
            "core_height": [2, 4, 8],
            "core_width": [2, 4, 8],
            "num_wavelengths": [1, 2, 4],
        }
    )

    strategies = [
        GridSearch(),
        RandomSearch(num_samples=10, seed=7),
        CoordinateDescent(objective="energy_uj"),
    ]
    rows = []
    for strategy in strategies:
        start = time.perf_counter()
        result = explorer.explore(space, strategy=strategy)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        best = result.best("energy_uj")
        rows.append(
            (
                result.strategy,
                result.evaluations,
                len(result),
                f"{best.energy_uj:.3f}",
                ", ".join(f"{k}={v}" for k, v in sorted(best.parameters.items())),
                f"{elapsed_ms:.1f}",
            )
        )
    print(f"design space: {space.size()} points; strategies share one engine cache\n")
    print(
        format_table(
            ["strategy", "evaluations", "distinct points", "best energy (uJ)",
             "best point", "time (ms)"],
            rows,
        )
    )
    print("\nengine cache usage (hits/lookups per memoized pass):")
    for stage, stats in sorted(explorer.cache.stats.items()):
        print(f"  {stage:16s} {stats.hits:4d}/{stats.lookups:4d}")


if __name__ == "__main__":
    main()
