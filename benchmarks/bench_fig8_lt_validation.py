"""Fig. 8: BERT-Base (single 224x224 ImageNet image) on Lightening-Transformer.

The scenario's ``num_layers`` parameter (default 4; ``python -m repro run
fig8_lt_validation --param num_layers=N``) scales the number of simulated
encoder blocks; totals are extrapolated to 12 layers either way.

Thin shim over the ``fig8_lt_validation`` scenario: the experiment itself (setup, table
rendering, qualitative shape checks) lives in :mod:`repro.scenarios.catalog` and
also runs via ``python -m repro run fig8_lt_validation``.  This file only adapts it to
the pytest-benchmark harness and persists the table to
``benchmarks/results/fig8_lt_validation.txt``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.report import save_result_text
from repro.scenarios import REGISTRY

RESULTS_DIR = Path(__file__).parent / "results"
SCENARIO = "fig8_lt_validation"


def test_fig8_lightening_transformer_validation(benchmark):
    outcome = benchmark.pedantic(lambda: REGISTRY.run(SCENARIO), rounds=1, iterations=1)
    save_result_text(RESULTS_DIR / f"{SCENARIO}.txt", outcome.table)
    REGISTRY.verify(SCENARIO, outcome)
