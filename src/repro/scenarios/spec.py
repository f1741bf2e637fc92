"""Declarative scenario specifications and their results.

A :class:`ScenarioSpec` is pure data: it names the architecture templates, the
configuration and simulation overrides, the workload set, the sweep axes, the
search strategy and the output columns of one figure/table experiment.  The
executable half (the build function that turns a spec into a rendered table)
lives in the :class:`~repro.scenarios.registry.ScenarioRegistry`; the spec is
what gets validated, fingerprinted and keyed into the persistent result store.

Validation is eager and actionable: unknown override fields, malformed sweep
axes, unknown strategies/objectives/templates all raise at *registration* time
with a did-you-mean suggestion, instead of silently falling through the way
ad-hoc scripts allowed.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.arch.architecture import ArchitectureConfig
from repro.arch.templates import TEMPLATE_BUILDERS
from repro.core.config import SimulationConfig
from repro.explore.dse import DesignPoint, validate_sweep_axes
from repro.explore.search import STRATEGIES

_ARCH_FIELDS = {f.name for f in dataclasses.fields(ArchitectureConfig)}
_SIM_FIELDS = {f.name for f in dataclasses.fields(SimulationConfig)}
_OBJECTIVES = {f.name for f in dataclasses.fields(DesignPoint) if f.name != "parameters"}


def _unknown_field_error(kind: str, name: str, known: Sequence[str]) -> KeyError:
    close = difflib.get_close_matches(str(name), sorted(known), n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return KeyError(
        f"unknown {kind} {name!r}{hint}; known: {', '.join(sorted(known))}"
    )


def validate_config_overrides(overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """Check ``overrides`` against ArchitectureConfig's fields (typos raise)."""
    for name in overrides:
        if name not in _ARCH_FIELDS:
            raise _unknown_field_error("ArchitectureConfig override", name, _ARCH_FIELDS)
    return dict(overrides)


def validate_sim_overrides(overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """Check ``overrides`` against SimulationConfig's fields (typos raise)."""
    for name in overrides:
        if name not in _SIM_FIELDS:
            raise _unknown_field_error("SimulationConfig override", name, _SIM_FIELDS)
    return dict(overrides)


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one registered figure/table experiment.

    Fields:

    - ``name``: registry key, also the stem of ``benchmarks/results/<name>.txt``;
    - ``title`` / ``figure`` / ``description``: display metadata (``figure`` is
      the paper anchor, e.g. ``"Fig. 9(a)"`` or ``"Table I"``);
    - ``templates``: the architecture templates the scenario instantiates, by
      :data:`~repro.arch.templates.TEMPLATE_BUILDERS` key;
    - ``config_overrides`` / ``sim_overrides``: declarative deviations from the
      default :class:`ArchitectureConfig` / :class:`SimulationConfig`, validated
      field-by-field;
    - ``workloads``: human-readable identifiers of the workload set;
    - ``sweep``: swept ``ArchitectureConfig`` axes (``{field: (values...)}``),
      validated like a :class:`~repro.explore.dse.DesignSpace`;
    - ``strategy``: search-strategy name for sweep scenarios (grid/random/...);
    - ``objectives``: recorded DesignPoint objectives for sweep scenarios;
    - ``columns``: the output table's column headers;
    - ``params``: scenario-specific knobs with their defaults (e.g. the number
      of simulated BERT encoder blocks), overridable per run;
    - ``tags``: free-form labels; ``"smoke"`` marks the fast CI subset.
    """

    name: str
    title: str
    figure: str = ""
    description: str = ""
    templates: Tuple[str, ...] = ()
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
    sim_overrides: Mapping[str, Any] = field(default_factory=dict)
    workloads: Tuple[str, ...] = ()
    sweep: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    strategy: Optional[str] = None
    objectives: Tuple[str, ...] = ()
    columns: Tuple[str, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(
                f"scenario name must be a non-empty identifier-like string, got {self.name!r}"
            )
        for template in self.templates:
            if template not in TEMPLATE_BUILDERS:
                raise _unknown_field_error(
                    "architecture template", template, TEMPLATE_BUILDERS
                )
        object.__setattr__(
            self, "config_overrides", validate_config_overrides(self.config_overrides)
        )
        object.__setattr__(self, "sim_overrides", validate_sim_overrides(self.sim_overrides))
        if self.sweep:
            object.__setattr__(self, "sweep", validate_sweep_axes(self.sweep))
        if self.strategy is not None and self.strategy not in STRATEGIES:
            raise _unknown_field_error("search strategy", self.strategy, STRATEGIES)
        for objective in self.objectives:
            if objective not in _OBJECTIVES:
                raise _unknown_field_error("objective", objective, _OBJECTIVES)

    # -- parameter resolution ---------------------------------------------------------
    def resolve_params(self, overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Defaults -> explicit overrides, type-coerced.

        Values coming from CLI strings are coerced to the type of the declared
        default; unknown override names raise with a suggestion (the
        actionable-validation contract).
        """
        resolved = dict(self.params)
        for name, value in dict(overrides or {}).items():
            if name not in resolved:
                raise _unknown_field_error(
                    f"parameter of scenario {self.name!r}", name, self.params or ["<none>"]
                )
            resolved[name] = _coerce(value, self.params[name], name)
        return resolved

    # -- configuration helpers --------------------------------------------------------
    def arch_config(self, **extra: Any) -> ArchitectureConfig:
        """ArchitectureConfig with this spec's overrides (plus ``extra``) applied."""
        merged = {**self.config_overrides, **validate_config_overrides(extra)}
        return ArchitectureConfig(**merged)

    def sim_config(self, **extra: Any) -> SimulationConfig:
        """SimulationConfig with this spec's overrides (plus ``extra``) applied."""
        merged = {**self.sim_overrides, **validate_sim_overrides(extra)}
        return SimulationConfig(**merged)


def _coerce(value: Any, default: Any, name: str) -> Any:
    """Coerce a string-ish override to the type of the declared default."""
    if isinstance(value, str) and not isinstance(default, str):
        try:
            if isinstance(default, bool):
                return value.lower() in ("1", "true", "yes", "on")
            if isinstance(default, int):
                return int(value)
            if isinstance(default, float):
                return float(value)
        except ValueError:
            raise ValueError(
                f"parameter {name!r} expects a {type(default).__name__}, got {value!r}"
            ) from None
    return value


@dataclass
class ScenarioResult:
    """Outcome of running one scenario.

    ``table`` is the rendered report (the exact text the seed benchmark wrote to
    ``benchmarks/results/<name>.txt``); ``metrics`` is the JSON-serializable
    summary the scenario's verification checks consume (it round-trips through
    the persistent store); ``extras`` holds live, non-persisted objects
    (simulation results, floorplans) for in-process consumers only.
    """

    table: str
    metrics: Dict[str, Any] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)
    name: str = ""
    fingerprint: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0
    from_store: bool = False

    def to_payload(self) -> Dict[str, Any]:
        """The JSON artifact body persisted by the result store."""
        return {
            "schema": 1,
            "name": self.name,
            "fingerprint": self.fingerprint,
            "params": self.params,
            "elapsed_s": self.elapsed_s,
            "table": self.table,
            "metrics": self.metrics,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ScenarioResult":
        return cls(
            table=payload["table"],
            metrics=dict(payload.get("metrics", {})),
            name=payload.get("name", ""),
            fingerprint=payload.get("fingerprint", ""),
            params=dict(payload.get("params", {})),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            from_store=True,
        )
