"""Architecture: the hierarchical, parametric description of an EPIC AI accelerator.

An architecture is a *description*, not a behavioural model: it bundles the device
library, the symbolic device-instance groups, the node/link netlists, the PTC
taxonomy entry and the dataflow specification.  The analyzers in :mod:`repro.core`
consume this description together with a workload to produce latency, energy, area
and link-budget numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.arch.dataflow_spec import Dataflow, DataflowSpec
from repro.arch.instance import Activity, ArchInstance, Role
from repro.arch.taxonomy import PTCTaxonomyEntry, TABLE_I
from repro.devices.library import DeviceLibrary
from repro.netlist.dag import CircuitDAG, CriticalPath
from repro.netlist.netlist import Netlist


@dataclass
class ArchitectureConfig:
    """Parametric description of a multi-tile, multi-core PTC accelerator.

    Parameters follow the paper's notation: ``num_tiles`` (R), ``cores_per_tile``
    (C), ``core_height`` (H), ``core_width`` (W).  ``num_wavelengths`` is the WDM
    parallelism (LAMBDA in scaling rules), ``temporal_accumulation`` the analog
    integration window in cycles (T_ACC).
    """

    num_tiles: int = 2
    cores_per_tile: int = 2
    core_height: int = 4
    core_width: int = 4
    num_wavelengths: int = 1
    frequency_ghz: float = 5.0
    input_bits: int = 8
    weight_bits: int = 8
    output_bits: int = 8
    temporal_accumulation: int = 1
    name: str = "ptc"

    def __post_init__(self) -> None:
        for label, value in (
            ("num_tiles", self.num_tiles),
            ("cores_per_tile", self.cores_per_tile),
            ("core_height", self.core_height),
            ("core_width", self.core_width),
            ("num_wavelengths", self.num_wavelengths),
            ("temporal_accumulation", self.temporal_accumulation),
        ):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{label} must be a positive integer, got {value!r}")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")
        for label, bits in (
            ("input_bits", self.input_bits),
            ("weight_bits", self.weight_bits),
            ("output_bits", self.output_bits),
        ):
            if not isinstance(bits, int) or bits < 1:
                raise ValueError(f"{label} must be a positive integer, got {bits!r}")

    # -- derived quantities -----------------------------------------------------
    @property
    def num_cores(self) -> int:
        return self.num_tiles * self.cores_per_tile

    @property
    def num_nodes(self) -> int:
        """Total dot-product nodes across the architecture (R*C*H*W)."""
        return self.num_cores * self.core_height * self.core_width

    @property
    def cycle_time_ns(self) -> float:
        return 1.0 / self.frequency_ghz

    def scaling_params(self) -> Dict[str, float]:
        """Parameter dictionary consumed by :class:`~repro.netlist.scaling.ScalingRule`."""
        return {
            "R": float(self.num_tiles),
            "C": float(self.cores_per_tile),
            "H": float(self.core_height),
            "W": float(self.core_width),
            "LAMBDA": float(self.num_wavelengths),
            "T_ACC": float(self.temporal_accumulation),
            "B_IN": float(self.input_bits),
            "B_W": float(self.weight_bits),
            "B_OUT": float(self.output_bits),
            "FREQ": float(self.frequency_ghz),
        }


class Architecture:
    """A complete parametric EPIC accelerator description."""

    def __init__(
        self,
        name: str,
        config: ArchitectureConfig,
        library: DeviceLibrary,
        instances: Iterable[ArchInstance],
        link_netlist: Netlist,
        node_netlist: Optional[Netlist] = None,
        taxonomy: Optional[PTCTaxonomyEntry] = None,
        dataflow: Optional[DataflowSpec] = None,
        node_device_spacing_um: float = 5.0,
        node_boundary_um: float = 10.0,
    ) -> None:
        self.name = name
        self.config = config
        self.library = library
        self.instances: List[ArchInstance] = list(instances)
        if not self.instances:
            raise ValueError(f"architecture {name!r} needs at least one ArchInstance")
        names = [inst.name for inst in self.instances]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate ArchInstance names: {sorted(duplicates)}")
        self.link_netlist = link_netlist
        self.node_netlist = node_netlist
        self.taxonomy = taxonomy or TABLE_I["tempo"]
        self.dataflow = dataflow or DataflowSpec()
        self.node_device_spacing_um = node_device_spacing_um
        self.node_boundary_um = node_boundary_um
        self._validate()

    def _validate(self) -> None:
        known_devices = set(self.library.names())
        for inst in self.instances:
            if not inst.is_composite and inst.device not in known_devices:
                raise KeyError(
                    f"ArchInstance {inst.name!r} references unknown device {inst.device!r}"
                )
        self.link_netlist.validate()
        if self.node_netlist is not None:
            self.node_netlist.validate(device_names=known_devices)

    # -- parameters ----------------------------------------------------------------
    @property
    def params(self) -> Dict[str, float]:
        return self.config.scaling_params()

    @property
    def frequency_ghz(self) -> float:
        return self.config.frequency_ghz

    # -- instance queries ------------------------------------------------------------
    def instance(self, name: str) -> ArchInstance:
        for inst in self.instances:
            if inst.name == name:
                return inst
        raise KeyError(f"architecture {self.name!r} has no ArchInstance {name!r}")

    def instances_by_role(self, role: Role) -> List[ArchInstance]:
        return [inst for inst in self.instances if inst.role is role]

    def resolve(self) -> "ResolvedArchitecture":
        """A fresh table of this architecture's scaling rules at its parameters.

        Never stored on the architecture: an evaluation run keeps its own table
        (see :class:`~repro.core.engine.EvaluationContext`) and drops it with
        the run.
        """
        return ResolvedArchitecture(self)

    def device_counts(self) -> Dict[str, int]:
        """Physical instance count per ArchInstance group for the current parameters."""
        return dict(self.resolve().counts)

    def total_device_count(self) -> int:
        return sum(self.device_counts().values())

    # -- area (naive; layout-aware analysis lives in repro.core.area) ---------------
    def footprint_breakdown_um2(self) -> Dict[str, float]:
        """Naive device-footprint-sum area per group (layout-unaware baseline).

        Composite node groups use the sum of their node-netlist device footprints.
        """
        counts = self.resolve().counts
        breakdown: Dict[str, float] = {}
        for inst in self.instances:
            if not inst.count_in_area:
                continue
            count = counts[inst.name]
            if inst.is_composite:
                unit_area = self.node_footprint_sum_um2()
            else:
                unit_area = self.library.get(inst.device).area_um2
            breakdown[inst.name] = breakdown.get(inst.name, 0.0) + unit_area * count
        return breakdown

    def node_footprint_sum_um2(self) -> float:
        """Sum of device footprints inside the node netlist (no layout awareness)."""
        if self.node_netlist is None:
            return 0.0
        return sum(
            self.library.get(inst.device).area_um2
            for inst in self.node_netlist.instances.values()
        )

    # -- link budget -------------------------------------------------------------------
    def loss_groups(self) -> List[Tuple[str, ArchInstance]]:
        """``(link-netlist instance, ArchInstance)`` pairs, in netlist order, for
        every link-netlist instance named after an ArchInstance: the groups
        whose loss multiplicity scales that instance's insertion loss."""
        by_name = {inst.name: inst for inst in self.instances}
        return [
            (netlist_inst.name, by_name[netlist_inst.name])
            for netlist_inst in self.link_netlist.instances.values()
            if netlist_inst.name in by_name
        ]

    def loss_multipliers(self) -> Dict[str, float]:
        """Per-link-netlist-instance loss multiplicities evaluated at current params."""
        return dict(self.resolve().loss_multipliers)

    def circuit_dag(self, loss_multipliers: Optional[Mapping[str, float]] = None) -> CircuitDAG:
        """Weighted DAG of the link netlist with parametric loss multiplicities.

        ``loss_multipliers`` defaults to a fresh evaluation of the loss rules.
        """
        if loss_multipliers is None:
            loss_multipliers = self.resolve().loss_multipliers
        return CircuitDAG(self.link_netlist, self.library, loss_multipliers=loss_multipliers)

    def critical_path(self) -> CriticalPath:
        return self.circuit_dag().critical_path()

    def critical_path_loss_db(self) -> float:
        return self.critical_path().insertion_loss_db

    # -- compute capability ----------------------------------------------------------
    def macs_per_cycle(self) -> int:
        return self.dataflow.macs_per_cycle(self.params)

    def peak_ops_per_second(self) -> float:
        """Peak throughput in MAC operations per second (2 ops per MAC not counted)."""
        return self.macs_per_cycle() * self.config.frequency_ghz * 1e9

    @property
    def forwards_per_output(self) -> int:
        """Range-restriction latency multiplier I from Table I."""
        return self.taxonomy.num_forwards

    def weight_reconfig_time_ns(self) -> float:
        """Worst-case weight reprogramming time over the weight-encoder devices."""
        times = [
            self.library.get(inst.device).reconfig_time_ns
            for inst in self.instances_by_role(Role.WEIGHT_ENCODER)
            if not inst.is_composite
        ]
        return max(times, default=0.0)

    def weight_reconfig_cycles(self) -> int:
        """Reconfiguration penalty in whole cycles (0 when it fits in one cycle)."""
        reconfig_ns = self.weight_reconfig_time_ns()
        cycles = reconfig_ns * self.config.frequency_ghz
        return int(cycles) if cycles > 1.0 else 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cfg = self.config
        return (
            f"Architecture({self.name!r}, R={cfg.num_tiles}, C={cfg.cores_per_tile}, "
            f"H={cfg.core_height}, W={cfg.core_width}, lambda={cfg.num_wavelengths}, "
            f"f={cfg.frequency_ghz}GHz)"
        )


class ResolvedArchitecture:
    """One architecture's scaling rules, each evaluated once at its parameters.

    The table an evaluation run reads instead of re-evaluating rules: instance
    counts, link-path loss multiplicities and the dataflow's per-cycle
    parallel extents, each computed on first read from one ``arch.params``
    snapshot.  ``energy_terms`` holds the energy analyzer's per-overlay
    instance counts and duty cycles for the same run (see
    :class:`~repro.core.energy.EnergyAnalyzer`).
    A table belongs to one run and is never stored on the architecture, so a
    rebound configuration can never read another's numbers.
    """

    def __init__(self, arch: Architecture) -> None:
        self.arch = arch
        self.params: Dict[str, float] = arch.params
        self.energy_terms: Dict[tuple, tuple] = {}

    @cached_property
    def counts(self) -> Dict[str, int]:
        """Physical instance count per ArchInstance group."""
        params = self.params
        return {inst.name: inst.instance_count(params) for inst in self.arch.instances}

    @cached_property
    def loss_multipliers(self) -> Dict[str, float]:
        """Loss multiplicity per link-netlist instance that names an ArchInstance."""
        params = self.params
        return {name: inst.loss_multiplicity(params) for name, inst in self.arch.loss_groups()}

    @cached_property
    def parallel_dims(self) -> Mapping[str, int]:
        """Per-cycle M/N/K extents of the dataflow."""
        return self.arch.dataflow.parallel_dims(self.params)

    def overlaid(self, overlay: Mapping[str, float]) -> Tuple[Dict[str, float], frozenset]:
        """Parameters with ``overlay`` applied, and the names whose values it changes.

        A rule that reads none of the changed names evaluates to its base value.
        """
        params = self.params
        changed = frozenset(name for name, value in overlay.items() if params.get(name) != value)
        if not changed:
            return params, changed
        overlaid = dict(params)
        overlaid.update(overlay)
        return overlaid, changed


@dataclass
class HeterogeneousArchitecture:
    """A set of named sub-architectures sharing one memory hierarchy.

    Layers are routed to sub-architectures by the heterogeneous mapper
    (:mod:`repro.dataflow.scheduler`), reproducing the paper's Fig. 11 use case
    (convolutions on SCATTER, linear layers on an MZI mesh).
    """

    name: str
    subarchs: Dict[str, Architecture] = field(default_factory=dict)

    def add(self, key: str, arch: Architecture) -> None:
        if key in self.subarchs:
            raise KeyError(f"sub-architecture {key!r} already present")
        self.subarchs[key] = arch

    def get(self, key: str) -> Architecture:
        try:
            return self.subarchs[key]
        except KeyError:
            known = ", ".join(sorted(self.subarchs))
            raise KeyError(f"unknown sub-architecture {key!r}; known: {known}") from None

    def __contains__(self, key: str) -> bool:
        return key in self.subarchs

    def __iter__(self):
        return iter(self.subarchs.items())

    def __len__(self) -> int:
        return len(self.subarchs)
