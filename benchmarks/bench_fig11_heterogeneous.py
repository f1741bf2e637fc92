"""Fig. 11: per-layer energy of VGG-8 (CIFAR-10) under heterogeneous mapping.

The scenario's ``width_multiplier`` parameter (default 0.25; ``python -m repro
run fig11_heterogeneous --param width_multiplier=W``) scales the channel widths.

Thin shim over the ``fig11_heterogeneous`` scenario: the experiment itself (setup, table
rendering, qualitative shape checks) lives in :mod:`repro.scenarios.catalog` and
also runs via ``python -m repro run fig11_heterogeneous``.  This file only adapts it to
the pytest-benchmark harness and persists the table to
``benchmarks/results/fig11_heterogeneous.txt``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.report import save_result_text
from repro.scenarios import REGISTRY

RESULTS_DIR = Path(__file__).parent / "results"
SCENARIO = "fig11_heterogeneous"


def test_fig11_heterogeneous_mapping(benchmark):
    outcome = benchmark.pedantic(lambda: REGISTRY.run(SCENARIO), rounds=1, iterations=1)
    save_result_text(RESULTS_DIR / f"{SCENARIO}.txt", outcome.table)
    REGISTRY.verify(SCENARIO, outcome)
