"""Layout-aware chip area analysis.

Per-component areas come from the architecture's instance counts and device
footprints; composite dot-product nodes are floorplanned with the signal-flow-aware
:class:`~repro.layout.floorplan.SignalFlowFloorplanner` (layout-aware mode) or summed
naively (layout-unaware mode, the underestimate of Fig. 10a).  On-chip memory area
from the CACTI-substitute models is added when a memory report is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from repro.arch.architecture import Architecture, ResolvedArchitecture
from repro.core.config import SimulationConfig
from repro.core.memory_analyzer import MemoryReport
from repro.core.report import component_label
from repro.layout.floorplan import SignalFlowFloorplanner, naive_footprint_sum_um2


@dataclass
class AreaReport:
    """Chip area breakdown for one architecture."""

    breakdown_um2: Dict[str, float] = field(default_factory=dict)
    node_area_um2: float = 0.0
    node_area_naive_um2: float = 0.0
    memory_area_mm2: float = 0.0
    layout_aware: bool = True

    @property
    def photonic_core_area_mm2(self) -> float:
        """Area of all PTC device groups (excluding memory)."""
        return sum(self.breakdown_um2.values()) / 1e6

    @property
    def total_area_mm2(self) -> float:
        return self.photonic_core_area_mm2 + self.memory_area_mm2

    @property
    def breakdown_mm2(self) -> Dict[str, float]:
        breakdown = {key: value / 1e6 for key, value in self.breakdown_um2.items()}
        if self.memory_area_mm2 > 0:
            breakdown["Mem"] = self.memory_area_mm2
        return breakdown

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AreaReport(total={self.total_area_mm2:.3f} mm2, "
            f"layout_aware={self.layout_aware})"
        )


class AreaRow(NamedTuple):
    """One area group of a built structure (see :meth:`AreaAnalyzer.rows`)."""

    label: str
    #: The ArchInstance group whose count scales the row.
    name: str
    #: Per-instance footprint; None for a composite node group.
    unit_area_um2: Optional[float]


class AreaAnalyzer:
    """Computes per-component and total chip area for an architecture."""

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config or SimulationConfig()

    def node_areas(self, arch: Architecture, layout_aware: bool) -> tuple:
        """(per-node area used, naive per-node area) in um^2.

        Public so the evaluation engine can memoize the floorplan across a sweep
        (it depends only on the node netlist, device geometry and spacing rules).
        """
        naive = arch.node_footprint_sum_um2()
        if arch.node_netlist is None:
            return naive, naive
        if not layout_aware:
            return naive, naive
        floorplanner = SignalFlowFloorplanner(
            device_spacing_um=arch.node_device_spacing_um,
            boundary_um=arch.node_boundary_um,
        )
        planned = floorplanner.area_um2(arch.node_netlist, arch.library)
        return planned, naive

    @staticmethod
    def rows(arch: Architecture) -> Tuple[AreaRow, ...]:
        """The point-invariant part of :meth:`analyze`: one row per area group.

        A row's label and unit area depend only on the built structure, so one
        plan serves every rebound design point of it; composite groups read
        the node area per point (``unit_area_um2`` is None).
        """
        return tuple(
            AreaRow(
                label=component_label(inst),
                name=inst.name,
                unit_area_um2=(
                    None if inst.is_composite else arch.library.get(inst.device).area_um2
                ),
            )
            for inst in arch.instances
            if inst.count_in_area
        )

    def analyze(
        self,
        arch: Architecture,
        memory_report: Optional[MemoryReport] = None,
        layout_aware: Optional[bool] = None,
        node_areas: Optional[tuple] = None,
        resolved: Optional[ResolvedArchitecture] = None,
    ) -> AreaReport:
        """Area breakdown of ``arch`` (a batch of one, see :meth:`report`).

        ``resolved`` is the evaluation run's rule table for ``arch`` (instance
        counts are read from it); without one a fresh table is built.
        """
        layout_aware = (
            self.config.use_layout_aware_area if layout_aware is None else layout_aware
        )
        if node_areas is None:
            node_areas = self.node_areas(arch, layout_aware)
        counts = (resolved if resolved is not None else arch.resolve()).counts
        return self.report(self.rows(arch), counts, node_areas, memory_report, layout_aware)

    def report(
        self,
        rows: Tuple[AreaRow, ...],
        counts: Mapping[str, int],
        node_areas: tuple,
        memory_report: Optional[MemoryReport],
        layout_aware: bool,
    ) -> AreaReport:
        """One design point's report from its structure's :meth:`rows`.

        The breakdown accumulates in instance order, groups with no instances
        left out, exactly as a loop over ``arch.instances`` would.
        """
        node_area, node_naive = node_areas
        breakdown: Dict[str, float] = {}
        for label, name, unit_area in rows:
            count = counts[name]
            if count == 0:
                continue
            if unit_area is None:
                unit_area = node_area
            breakdown[label] = breakdown.get(label, 0.0) + unit_area * count

        memory_area = 0.0
        if memory_report is not None and self.config.include_memory:
            memory_area = memory_report.onchip_area_mm2

        return AreaReport(
            breakdown_um2=breakdown,
            node_area_um2=node_area,
            node_area_naive_um2=node_naive,
            memory_area_mm2=memory_area,
            layout_aware=layout_aware,
        )

    def naive_total_um2(self, arch: Architecture) -> float:
        """Convenience: the fully layout-unaware total (footprint sums everywhere)."""
        report = self.analyze(arch, memory_report=None, layout_aware=False)
        return sum(report.breakdown_um2.values())

    @staticmethod
    def node_floorplan_gap(arch: Architecture) -> float:
        """Ratio of floorplanned to naive node area (>= 1 when layout matters)."""
        if arch.node_netlist is None:
            return 1.0
        naive = naive_footprint_sum_um2(arch.node_netlist, arch.library)
        if naive <= 0:
            return 1.0
        floorplanner = SignalFlowFloorplanner(
            device_spacing_um=arch.node_device_spacing_um,
            boundary_um=arch.node_boundary_um,
        )
        return floorplanner.area_um2(arch.node_netlist, arch.library) / naive
