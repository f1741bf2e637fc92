"""Declarative scenario subsystem: registry, batch runner, persistent store.

Every figure/table experiment of the paper's evaluation -- and every extension
study -- is a registered :class:`~repro.scenarios.spec.ScenarioSpec` executed
through the staged :class:`~repro.core.engine.EvaluationEngine`.  The public
surface:

- :data:`REGISTRY` / :func:`run_scenario` -- look up and execute scenarios;
- :class:`BatchRunner` -- run many scenarios with one shared evaluation cache
  and a persistent on-disk :class:`ResultStore`;
- ``python -m repro`` (:mod:`repro.cli`) -- the command-line frontend.

Importing this package registers the full catalog.
"""

from repro.scenarios.registry import (
    REGISTRY,
    Scenario,
    ScenarioContext,
    ScenarioRegistry,
    run_scenario,
)
from repro.scenarios.runner import BatchItem, BatchReport, BatchRunner
from repro.scenarios.spec import ScenarioResult, ScenarioSpec
from repro.scenarios.store import ResultStore, default_store_root, scenario_fingerprint
from repro.scenarios.workloads import ablation_workload, paper_gemm, scatter_conv_workload

# Registering the catalog is an import side effect by design: any importer of
# ``repro.scenarios`` sees the complete registry.
from repro.scenarios import catalog  # noqa: E402,F401  (registration side effect)

__all__ = [
    "REGISTRY",
    "Scenario",
    "ScenarioContext",
    "ScenarioRegistry",
    "ScenarioResult",
    "ScenarioSpec",
    "BatchItem",
    "BatchReport",
    "BatchRunner",
    "ResultStore",
    "default_store_root",
    "scenario_fingerprint",
    "run_scenario",
    "paper_gemm",
    "scatter_conv_workload",
    "ablation_workload",
]
