"""Acceptance: every registered scenario reproduces its checked-in benchmark table.

Runs every registered scenario through the registry (one shared evaluation
cache, exactly like ``python -m repro batch --all``) and compares the rendered
tables byte-for-byte against ``benchmarks/results/*.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenarios import REGISTRY, BatchRunner

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

ALL_SCENARIOS = REGISTRY.names()


@pytest.fixture(scope="module")
def batch_report():
    """One shared-cache batch over every registered scenario (no store)."""
    report = BatchRunner(store=None).run(ALL_SCENARIOS)
    assert report.ok, [item.error for item in report.items if not item.ok]
    return report


def test_every_result_file_has_a_scenario_and_vice_versa():
    stems = {p.stem for p in RESULTS_DIR.glob("*.txt")}
    assert stems == set(ALL_SCENARIOS)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_reproduces_checked_in_table(batch_report, name):
    result = batch_report.item(name).result
    reference = (RESULTS_DIR / f"{name}.txt").read_text()
    assert result.table + "\n" == reference, (
        f"{name} no longer reproduces benchmarks/results/{name}.txt byte-for-byte"
    )


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_passes_its_shape_checks(batch_report, name):
    REGISTRY.verify(name, batch_report.item(name).result)

