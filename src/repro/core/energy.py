"""Data-dependent, device-response-aware energy analysis.

For each architecture instance group the analyzer accumulates energy according to
its activity model:

- ``STATIC`` devices burn their (possibly data-dependent) power for the layer's
  *compute* time (``I * tau_comp``); reconfiguration stalls are charged to latency,
  not to heater/laser energy, matching the reference breakdowns;
- ``PER_CYCLE`` devices (converters, dynamic modulators) pay a per-cycle energy on
  every *active* cycle, where idle lanes (spatial under-utilization, pruned weights)
  are power-gated in data-aware mode;
- ``PER_RECONFIG`` devices (PCM cells) only pay energy when the stationary operand
  is rewritten;
- ``PASSIVE`` optics consume nothing.

Laser energy comes from the link-budget report (Eq. 1) rather than a fixed device
power, and data movement ("DM") from the memory analyzer.  In data-aware mode the
power of data-dependent devices (phase shifters, ring tuners) is the response-model
average over the *actual* workload operand values -- the behaviour highlighted in
Figs. 5 and 10(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.arch.architecture import Architecture, ResolvedArchitecture
from repro.arch.instance import Activity, ArchInstance, Role
from repro.core.config import SimulationConfig
from repro.core.link_budget import LinkBudgetReport
from repro.core.report import component_label
from repro.dataflow.mapping import Mapping


@dataclass
class EnergyReport:
    """Per-component energy breakdown (pJ) for one mapped workload."""

    breakdown_pj: Dict[str, float] = field(default_factory=dict)
    total_time_ns: float = 0.0
    data_aware: bool = True

    @property
    def total_pj(self) -> float:
        return sum(self.breakdown_pj.values())

    @property
    def total_uj(self) -> float:
        return self.total_pj / 1e6

    @property
    def compute_pj(self) -> float:
        return self.total_pj - self.breakdown_pj.get("DM", 0.0)

    @property
    def average_power_mw(self) -> Dict[str, float]:
        """Breakdown converted to average power over the execution time."""
        if self.total_time_ns <= 0:
            return {key: 0.0 for key in self.breakdown_pj}
        return {key: value / self.total_time_ns for key, value in self.breakdown_pj.items()}

    @property
    def total_power_mw(self) -> float:
        return sum(self.average_power_mw.values())

    def component(self, label: str) -> float:
        return self.breakdown_pj.get(label, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EnergyReport(total={self.total_pj:.1f} pJ over {self.total_time_ns:.1f} ns)"


class _PlanRow(NamedTuple):
    """One device group's mapping-independent energy terms (see ``EnergyAnalyzer.plan``)."""

    label: str
    activity: Activity
    inst: ArchInstance
    device: object
    count: int
    duty: float
    #: STATIC ``count * power * duty``, PER_CYCLE ``count * (power * cycle_ns +
    #: e_op)``, PER_RECONFIG the write energy; None while the power is
    #: data-dependent (looked up per mapping).
    prefix: Optional[float]
    by_utilization: bool  # PER_CYCLE activity scaled by spatial utilization
    by_keep: bool  # scaled by the unpruned fraction ``1 - sparsity``


class EnergyAnalyzer:
    """Accumulates data-aware device and data-movement energy for one mapping.

    ``cache`` (an :class:`~repro.core.cache.EvaluationCache`) optionally memoizes
    the data-aware sub-computations -- normalized/subsampled operand values and
    per-device response-model power averages -- keyed by the workload operand
    digest and the device model, so design-space sweeps that re-simulate the same
    tensors on many architecture variants compute each average once.  Workload
    sparsity is not a cache stage: it is memoized on the workload itself (see
    :attr:`~repro.dataflow.gemm.GEMMWorkload.sparsity`).  Without a cache the
    behaviour is exactly the seed analyzer's.

    Instance counts and duty cycles come from the run's
    :class:`~repro.arch.architecture.ResolvedArchitecture` table, never from
    re-evaluated rules.  :meth:`plan` turns the table into one row per
    energy-consuming group for a mapping overlay (``T_ACC``), cycle time and
    mode -- its label, device and mapping-independent prefix -- and memoizes
    the rows on the table, so each mapping of the run only multiplies its own
    scalars (compute time, active cycles, utilization, keep fraction,
    reconfiguration events) onto the prefixes, in the same left-to-right float
    order as the per-instance loop the plan replaced.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        cache: Optional["EvaluationCache"] = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.cache = cache

    # -- cached data-aware sub-computations ----------------------------------------
    def _cached_operand_values(
        self, mapping: Mapping, operand: Optional[str]
    ) -> Optional[np.ndarray]:
        if self.cache is None or not self.cache.enabled or operand is None:
            return self._operand_values(mapping, operand)
        from repro.core.cache import workload_fingerprint

        key = (
            workload_fingerprint(mapping.workload),
            operand,
            self.config.value_sample_limit,
        )
        return self.cache.get_or_compute(
            "operand_values", key, lambda: self._operand_values(mapping, operand)
        )

    # -- operand value handling -----------------------------------------------------
    def _operand_values(self, mapping: Mapping, operand: Optional[str]) -> Optional[np.ndarray]:
        """Normalized operand values routed to a device group (pruned weights excluded).

        Pruned weight cells are power-gated rather than parked at the zero-weight
        setting, so they are dropped here and accounted for by the keep-fraction
        scaling in :meth:`analyze`.
        """
        workload = mapping.workload
        if operand == "B":
            values = workload.normalized_weights()
            if values is not None and workload.pruning_mask is not None:
                values = values[workload.pruning_mask]
        elif operand == "A":
            values = workload.normalized_inputs()
        else:
            values = None
        if values is None:
            return None
        flat = np.asarray(values, dtype=float).ravel()
        limit = self.config.value_sample_limit
        if flat.size > limit:
            rng = np.random.default_rng(0)
            flat = rng.choice(flat, size=limit, replace=False)
        return flat

    def _data_power_mw(self, device, inst: ArchInstance, mapping: Mapping) -> float:
        """Response-model power of a data-dependent device on the mapping's operands."""
        if self.cache is not None and self.cache.enabled:
            from repro.core.cache import device_fingerprint, workload_fingerprint

            key = (
                device_fingerprint(device),
                inst.operand,
                workload_fingerprint(mapping.workload),
                self.config.value_sample_limit,
            )
            return self.cache.get_or_compute(
                "device_power", key, lambda: self._average_power(device, mapping, inst.operand)
            )
        return self._average_power(device, mapping, inst.operand)

    def _average_power(self, device, mapping: Mapping, operand: Optional[str]) -> float:
        values = self._cached_operand_values(mapping, operand)
        if values is None or values.size == 0:
            return device.nominal_power_mw()
        return device.response.average_power_mw(values)

    # -- the energy plan ------------------------------------------------------------
    def plan(
        self,
        resolved: ResolvedArchitecture,
        overlay: Dict[str, float],
        cycle_ns: float,
        data_aware: bool,
        has_link_budget: bool,
    ) -> Tuple[_PlanRow, ...]:
        """The mapping-independent part of :meth:`analyze`, one row per device group.

        Memoized on ``resolved`` (one evaluation run) per overlay, cycle time,
        data-aware mode, link-budget presence and idle gating, so each rule is
        evaluated once per overlay and every mapping only multiplies its own
        scalars onto the rows' prefixes.
        """
        key = (
            tuple(sorted(overlay.items())),
            cycle_ns,
            data_aware,
            has_link_budget,
            self.config.include_idle_gating,
        )
        cached = resolved.energy_plans.get(key)
        if cached is not None:
            return cached
        arch = resolved.arch
        params, changed = resolved.overlaid(overlay)
        rows = []
        for inst in arch.instances:
            if not inst.count_in_energy or inst.activity is Activity.PASSIVE:
                continue
            if inst.role is Role.LIGHT_SOURCE and has_link_budget:
                continue  # accounted via the link budget
            if changed.isdisjoint(inst.count.variables):
                count = resolved.counts[inst.name]
            else:
                count = inst.instance_count(params)
            if count == 0:
                continue
            device = arch.library.get(inst.device)
            data_power = data_aware and inst.data_dependent
            by_utilization = False
            # The products below keep analyze()'s left-to-right float order:
            # a mapping multiplies its scalars onto the prefix, never into it.
            if inst.activity is Activity.STATIC:
                duty = inst.duty_factor(params)
                prefix = None if data_power else count * device.nominal_power_mw() * duty
                by_keep = data_aware and inst.operand == "B"
            elif inst.activity is Activity.PER_CYCLE:
                duty = inst.duty_factor(params)
                prefix = None if data_power else count * (
                    device.nominal_power_mw() * cycle_ns + device.energy_per_op_pj
                )
                by_utilization = self.config.include_idle_gating
                by_keep = data_aware and inst.role is Role.WEIGHT_ENCODER
            else:  # PER_RECONFIG
                duty = 1.0
                prefix = float(device.spec.extra.get("write_energy_pj", device.energy_per_op_pj))
                by_keep = data_aware
            rows.append(
                _PlanRow(
                    label=component_label(inst),
                    activity=inst.activity,
                    inst=inst,
                    device=device,
                    count=count,
                    duty=duty,
                    prefix=prefix,
                    by_utilization=by_utilization,
                    by_keep=by_keep,
                )
            )
        plan = resolved.energy_plans[key] = tuple(rows)
        return plan

    # -- main entry point -------------------------------------------------------------
    def analyze(
        self,
        arch: Architecture,
        mapping: Mapping,
        link_budget: Optional[LinkBudgetReport] = None,
        memory_energy_pj: float = 0.0,
        memory_static_power_mw: float = 0.0,
        data_aware: Optional[bool] = None,
        resolved: Optional[ResolvedArchitecture] = None,
    ) -> EnergyReport:
        """Energy breakdown of one mapping.

        ``resolved`` is the evaluation run's rule table for ``arch`` (its
        energy plans are memoized on it); without one a fresh table is built.
        """
        data_aware = self.config.data_aware if data_aware is None else data_aware
        if resolved is None:
            resolved = arch.resolve()
        cycle_ns = 1.0 / mapping.frequency_ghz
        rows = self.plan(
            resolved, mapping.params_overlay(), cycle_ns, data_aware, link_budget is not None
        )
        compute_time_ns = mapping.compute_time_ns
        active_cycles = mapping.compute_cycles
        events = mapping.reconfig_events * mapping.forwards
        utilization = mapping.utilization
        sparsity = mapping.workload.sparsity if data_aware else 0.0
        keep = max(0.0, 1.0 - sparsity)

        breakdown: Dict[str, float] = {}

        def add(label: str, energy_pj: float) -> None:
            if energy_pj <= 0:
                return
            breakdown[label] = breakdown.get(label, 0.0) + energy_pj

        # Laser: sized by the link budget, on for the optical compute phases.
        if link_budget is not None:
            add("Laser", link_budget.total_laser_electrical_power_mw * compute_time_ns)

        for row in rows:
            if row.activity is Activity.STATIC:
                prefix = row.prefix
                if prefix is None:
                    power = self._data_power_mw(row.device, row.inst, mapping)
                    prefix = row.count * power * row.duty
                gating = keep if row.by_keep else 1.0
                add(row.label, prefix * gating * compute_time_ns)

            elif row.activity is Activity.PER_CYCLE:
                activity_scale = row.duty
                if row.by_utilization:
                    activity_scale *= utilization
                if row.by_keep:
                    activity_scale *= keep
                prefix = row.prefix
                if prefix is None:
                    power = self._data_power_mw(row.device, row.inst, mapping)
                    prefix = row.count * (power * cycle_ns + row.device.energy_per_op_pj)
                add(row.label, prefix * active_cycles * activity_scale)

            elif events:  # PER_RECONFIG: only when the stationary operand is rewritten
                scale = keep if row.by_keep else 1.0
                add(row.label, row.count * events * row.prefix * scale)

        # Data movement: dynamic access energy plus buffer leakage over the active
        # compute phases (stall cycles are charged to latency, not energy).
        dm_energy = memory_energy_pj + memory_static_power_mw * compute_time_ns
        add("DM", dm_energy)

        return EnergyReport(
            breakdown_pj=breakdown,
            total_time_ns=mapping.total_time_ns,
            data_aware=data_aware,
        )
