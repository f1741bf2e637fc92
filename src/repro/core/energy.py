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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    """One device group's point-invariant energy terms (see ``EnergyAnalyzer.plan``)."""

    label: str
    activity: Activity
    inst: ArchInstance
    device: object
    #: STATIC the device power, PER_CYCLE ``power * cycle_ns + e_op``,
    #: PER_RECONFIG the write energy; None while the power is data-dependent
    #: (looked up per mapping).
    unit: Optional[float]
    by_utilization: bool  # PER_CYCLE activity scaled by spatial utilization
    by_keep: bool  # scaled by the unpruned fraction ``1 - sparsity``
    #: The duty cycle when its rule reads no parameter (the same at every
    #: point and overlay); None when it is evaluated per point.
    duty: Optional[float]


class EnergyItem(NamedTuple):
    """One mapping for :meth:`EnergyAnalyzer.analyze_batch`, with what it reads."""

    arch: Architecture
    mapping: Mapping
    #: The evaluation run's rule table for ``arch``.
    resolved: ResolvedArchitecture
    link_budget: Optional[LinkBudgetReport]
    memory_energy_pj: float
    memory_static_power_mw: float


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
    re-evaluated rules.  :meth:`plan` turns an architecture's built structure
    into one row per energy-consuming group for a cycle time and mode -- its
    label, device and per-device energy unit -- so every design point that
    shares the structure shares the rows; :meth:`analyze_batch` reads each
    point's counts and duties from its table and evaluates a row's energy for
    all points at once, in the same left-to-right float order as the
    per-instance loop the plan replaced.
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
        arch: Architecture,
        cycle_ns: float,
        data_aware: bool,
        has_link_budget: bool,
    ) -> Tuple[_PlanRow, ...]:
        """The point-invariant part of :meth:`analyze`, one row per device group.

        A row's label, device, activity, gating flags and per-device energy
        unit depend only on the architecture's built structure, the cycle
        time and the mode, so one plan serves every rebound design point of
        that structure; counts and duty cycles are read per point
        (:meth:`_point_terms`).
        """
        params = arch.params
        rows = []
        for inst in arch.instances:
            if not inst.count_in_energy or inst.activity is Activity.PASSIVE:
                continue
            if inst.role is Role.LIGHT_SOURCE and has_link_budget:
                continue  # accounted via the link budget
            device = arch.library.get(inst.device)
            data_power = data_aware and inst.data_dependent
            by_utilization = False
            if inst.activity is Activity.STATIC:
                unit = None if data_power else device.nominal_power_mw()
                by_keep = data_aware and inst.operand == "B"
            elif inst.activity is Activity.PER_CYCLE:
                unit = None if data_power else (
                    device.nominal_power_mw() * cycle_ns + device.energy_per_op_pj
                )
                by_utilization = self.config.include_idle_gating
                by_keep = data_aware and inst.role is Role.WEIGHT_ENCODER
            else:  # PER_RECONFIG
                unit = float(device.spec.extra.get("write_energy_pj", device.energy_per_op_pj))
                by_keep = data_aware
            rows.append(
                _PlanRow(
                    label=component_label(inst),
                    activity=inst.activity,
                    inst=inst,
                    device=device,
                    unit=unit,
                    by_utilization=by_utilization,
                    by_keep=by_keep,
                    duty=None if inst.duty.variables else inst.duty_factor(params),
                )
            )
        return tuple(rows)

    @staticmethod
    def _point_terms(
        resolved: ResolvedArchitecture,
        overlay: Dict[str, float],
        rows: Tuple[_PlanRow, ...],
        has_link_budget: bool,
    ) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Each plan row's instance count and duty cycle at one design point.

        Memoized on ``resolved`` (one evaluation run) per overlay and plan
        row set, so each rule is evaluated once per overlay.  A group with
        no instances is skipped, as it would be by the per-instance loop:
        its duty reads 0.0 and is never evaluated.
        """
        overlay_key = tuple(sorted(overlay.items()))
        key = (overlay_key, has_link_budget)
        cached = resolved.energy_terms.get(key)
        if cached is not None:
            return cached
        params, changed = resolved.overlaid(overlay)
        counts = []
        duties = []
        for row in rows:
            inst = row.inst
            if changed.isdisjoint(inst.count.variables):
                count = resolved.counts[inst.name]
            else:
                count = inst.instance_count(params)
            if count == 0:
                duty = 0.0
            elif row.activity is Activity.PER_RECONFIG:
                duty = 1.0
            elif row.duty is not None:
                duty = row.duty
            else:
                duty = inst.duty_factor(params)
            counts.append(count)
            duties.append(duty)
        terms = resolved.energy_terms[key] = (tuple(counts), tuple(duties))
        return terms

    # -- main entry points ------------------------------------------------------------
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
        """Energy breakdown of one mapping (a batch of one, see :meth:`analyze_batch`).

        ``resolved`` is the evaluation run's rule table for ``arch``; without
        one a fresh table is built.
        """
        if resolved is None:
            resolved = arch.resolve()
        item = EnergyItem(
            arch, mapping, resolved, link_budget, memory_energy_pj, memory_static_power_mw
        )
        return self.analyze_batch([item], data_aware)[0]

    def analyze_batch(
        self, items: Sequence[EnergyItem], data_aware: Optional[bool] = None
    ) -> List[EnergyReport]:
        """Energy breakdowns of many mappings, evaluated row by row over the items.

        Items that share a built structure, cycle time and link-budget
        presence share one :meth:`plan`; each plan row's energy is evaluated
        with numpy over those items, in the per-instance loop's left-to-right
        float order, and a row whose energy is ``<= 0`` at an item is left out
        of that item's breakdown.  Each breakdown is then rebuilt in row
        order, so its keys, their order and every value equal the
        one-mapping-at-a-time evaluation bit for bit.
        """
        from repro.core.engine import structure_token

        data_aware = self.config.data_aware if data_aware is None else data_aware
        groups: Dict[tuple, List[int]] = {}
        for index, item in enumerate(items):
            key = (
                structure_token(item.arch),
                1.0 / item.mapping.frequency_ghz,
                item.link_budget is not None,
            )
            groups.setdefault(key, []).append(index)
        reports: List[Optional[EnergyReport]] = [None] * len(items)
        for (_, cycle_ns, has_link_budget), indices in groups.items():
            group = [items[i] for i in indices]
            rows = self.plan(group[0].arch, cycle_ns, data_aware, has_link_budget)
            for index, report in zip(
                indices, self._analyze_group(group, rows, cycle_ns, data_aware)
            ):
                reports[index] = report
        return reports

    def _analyze_group(
        self,
        items: Sequence[EnergyItem],
        rows: Tuple[_PlanRow, ...],
        cycle_ns: float,
        data_aware: bool,
    ) -> List[EnergyReport]:
        mappings = [item.mapping for item in items]
        has_link_budget = items[0].link_budget is not None
        terms = [
            self._point_terms(item.resolved, item.mapping.params_overlay(), rows, has_link_budget)
            for item in items
        ]
        counts = np.array([t[0] for t in terms], dtype=float).reshape(len(items), len(rows)).T
        duties = np.array([t[1] for t in terms], dtype=float).reshape(len(items), len(rows)).T
        compute_time_ns = np.array([m.compute_time_ns for m in mappings])
        active_cycles = np.array([m.compute_cycles for m in mappings], dtype=float)
        events = np.array([m.reconfig_events * m.forwards for m in mappings], dtype=float)
        utilization = np.array([m.utilization for m in mappings])
        keep = np.array(
            [max(0.0, 1.0 - (m.workload.sparsity if data_aware else 0.0)) for m in mappings]
        )

        # (label, energy, mask) in the order analyze() adds them.
        terms_in_order = []

        def add(label: str, energy: np.ndarray, live=True) -> None:
            terms_in_order.append((label, energy, live & ~(energy <= 0)))

        # Laser: sized by the link budget, on for the optical compute phases.
        if has_link_budget:
            laser_mw = np.array(
                [item.link_budget.total_laser_electrical_power_mw for item in items]
            )
            add("Laser", laser_mw * compute_time_ns)

        for row, count, duty in zip(rows, counts, duties):
            live = count != 0
            if row.unit is None:
                # Data-dependent power, looked up only where the group exists.
                power = np.array([
                    self._data_power_mw(row.device, row.inst, mapping) if alive else 0.0
                    for mapping, alive in zip(mappings, live.tolist())
                ])
            if row.activity is Activity.STATIC:
                energy = count * (power if row.unit is None else row.unit) * duty
                if row.by_keep:
                    energy = energy * keep
                add(row.label, energy * compute_time_ns, live)

            elif row.activity is Activity.PER_CYCLE:
                activity_scale = duty
                if row.by_utilization:
                    activity_scale = activity_scale * utilization
                if row.by_keep:
                    activity_scale = activity_scale * keep
                unit = row.unit
                if unit is None:
                    unit = power * cycle_ns + row.device.energy_per_op_pj
                add(row.label, count * unit * active_cycles * activity_scale, live)

            else:  # PER_RECONFIG: only when the stationary operand is rewritten
                energy = count * events * row.unit
                if row.by_keep:
                    energy = energy * keep
                add(row.label, energy, live & (events != 0))

        # Data movement: dynamic access energy plus buffer leakage over the active
        # compute phases (stall cycles are charged to latency, not energy).
        memory_pj = np.array([item.memory_energy_pj for item in items], dtype=float)
        leakage_mw = np.array([item.memory_static_power_mw for item in items], dtype=float)
        add("DM", memory_pj + leakage_mw * compute_time_ns)

        totals: Dict[str, np.ndarray] = {}
        for label, energy, mask in terms_in_order:
            previous = totals.get(label)
            contribution = np.where(mask, energy, 0.0)
            totals[label] = contribution if previous is None else previous + contribution
        values = {label: total.tolist() for label, total in totals.items()}
        masks = [(label, mask.tolist()) for label, _, mask in terms_in_order]
        reports = []
        for index, mapping in enumerate(mappings):
            breakdown: Dict[str, float] = {}
            for label, mask in masks:
                if mask[index]:  # a label's first live row fixes its key order
                    breakdown[label] = values[label][index]
            reports.append(
                EnergyReport(
                    breakdown_pj=breakdown,
                    total_time_ns=mapping.total_time_ns,
                    data_aware=data_aware,
                )
            )
        return reports
