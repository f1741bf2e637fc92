"""``repro lint``: repo-aware static analysis of the reproducibility contracts.

The simulator's correctness story rests on three implicit contracts that
ordinary tests exercise only pointwise:

- **determinism** -- every random draw and every timestamp that reaches a
  computed number must be derived from an explicit seed (R001);
- **fingerprint completeness** -- a memoized engine pass must key its cache
  entry on *everything* its compute closure reads (R002);
- **env-knob pinning** -- every ``REPRO_*`` environment variable is declared
  once in :mod:`repro.core.knobs` and read only through it, so task-shipping
  backends can pin the coordinator's knobs into worker task encodings (R003).

Two supporting hygiene rules keep the execution layer honest: task-context
classes stay picklable (R004) and module-level mutable state is only mutated
under a named lock (R005).

This package walks the source tree once (:mod:`repro.analysis.walker`), runs
every registered :class:`~repro.analysis.base.Rule` over the parsed modules,
and reports :class:`~repro.analysis.findings.Finding` records -- the
``repro lint`` CLI subcommand renders them as text or JSON and gates CI.
"""

from repro.analysis.base import Rule, all_rules, register_rule, rule_ids
from repro.analysis.findings import LINT_SCHEMA, Finding
from repro.analysis.runner import lint_paths
from repro.analysis.walker import ModuleInfo, collect_modules, parse_module

__all__ = [
    "Finding",
    "LINT_SCHEMA",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "collect_modules",
    "lint_paths",
    "parse_module",
    "register_rule",
    "rule_ids",
]
