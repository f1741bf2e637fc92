"""Extension benchmark: the 192-point large-grid DSE over TeMPO.

Thin shim over the ``dse_large_grid`` scenario: the experiment itself (setup,
table rendering, qualitative shape checks) lives in
:mod:`repro.scenarios.catalog` and also runs via
``python -m repro run dse_large_grid``.  This file only adapts it to the
pytest-benchmark harness and persists the table to
``benchmarks/results/dse_large_grid.txt``.  The table is byte-identical under
every execution backend (``--param backend=processes --param jobs=2``).
"""

from __future__ import annotations

from pathlib import Path

from repro.core.report import save_result_text
from repro.scenarios import REGISTRY

RESULTS_DIR = Path(__file__).parent / "results"
SCENARIO = "dse_large_grid"


def test_dse_large_grid(benchmark):
    outcome = benchmark.pedantic(lambda: REGISTRY.run(SCENARIO), rounds=1, iterations=1)
    save_result_text(RESULTS_DIR / f"{SCENARIO}.txt", outcome.table)
    REGISTRY.verify(SCENARIO, outcome)
