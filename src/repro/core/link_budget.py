"""Link-budget analysis: critical-path insertion loss and required laser power.

The critical path is the longest (highest-loss) laser-to-detector path of the
architecture's weighted DAG.  Given the photodetector sensitivity ``S`` (dBm), the
input encoding resolution ``b_in`` bits, the modulator extinction ratio ``ER`` (dB)
and the laser wall-plug efficiency, the minimum laser power follows Eq. (1):

    P_laser_optical = 10^((S + IL) / 10) * 2^b_in / (1 - 10^(-ER / 10))   [mW]
    P_laser_electrical = P_laser_optical / eta_WPE

The ``2^b_in`` factor provides enough optical dynamic range to resolve ``b_in``-bit
input levels at the target bit-error rate, and the extinction-ratio term is the
power penalty for a non-ideal modulator off state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.arch.architecture import Architecture, ResolvedArchitecture
from repro.arch.instance import Role
from repro.devices.photonic import (
    Laser,
    MachZehnderModulator,
    MicroRingModulator,
    Photodetector,
)
from repro.netlist.dag import CriticalPath


@dataclass
class LinkBudgetReport:
    """Result of the link-budget analysis for one architecture."""

    critical_path: CriticalPath
    insertion_loss_db: float
    pd_sensitivity_dbm: float
    extinction_ratio_db: float
    input_bits: int
    wall_plug_efficiency: float
    laser_optical_power_mw: float      # per laser / wavelength channel
    laser_electrical_power_mw: float   # per laser / wavelength channel
    num_sources: int
    total_laser_electrical_power_mw: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkBudgetReport(IL={self.insertion_loss_db:.2f} dB, "
            f"P_opt={self.laser_optical_power_mw:.3f} mW/ch, "
            f"P_elec_total={self.total_laser_electrical_power_mw:.3f} mW)"
        )


def required_laser_power_mw(
    insertion_loss_db: float,
    pd_sensitivity_dbm: float,
    input_bits: int,
    extinction_ratio_db: float,
    wall_plug_efficiency: float = 1.0,
) -> Tuple[float, float]:
    """Eq. (1): minimum (optical, electrical) laser power in mW.

    Raises :class:`ValueError` on non-physical parameters (non-positive extinction
    ratio or wall-plug efficiency outside (0, 1]).
    """
    if input_bits < 1:
        raise ValueError("input_bits must be >= 1")
    if extinction_ratio_db <= 0:
        raise ValueError("extinction ratio must be positive (dB)")
    if not 0 < wall_plug_efficiency <= 1:
        raise ValueError("wall-plug efficiency must be in (0, 1]")
    if insertion_loss_db < 0:
        raise ValueError("insertion loss must be non-negative")
    receiver_floor_mw = 10.0 ** ((pd_sensitivity_dbm + insertion_loss_db) / 10.0)
    er_penalty = 1.0 / (1.0 - 10.0 ** (-extinction_ratio_db / 10.0))
    optical_mw = receiver_floor_mw * (2.0**input_bits) * er_penalty
    electrical_mw = optical_mw / wall_plug_efficiency
    return optical_mw, electrical_mw


class LinkBudgetAnalyzer:
    """Derives the laser power requirement from an architecture description."""

    def __init__(self, default_sensitivity_dbm: float = -25.0,
                 default_extinction_ratio_db: float = 8.0,
                 default_wall_plug_efficiency: float = 0.2) -> None:
        self.default_sensitivity_dbm = default_sensitivity_dbm
        self.default_extinction_ratio_db = default_extinction_ratio_db
        self.default_wall_plug_efficiency = default_wall_plug_efficiency

    # -- device parameter discovery -----------------------------------------------------
    def _pd_sensitivity(self, arch: Architecture) -> float:
        for inst in arch.instances_by_role(Role.DETECTION):
            device = arch.library.get(inst.device)
            if isinstance(device, Photodetector):
                return device.sensitivity_dbm
        return self.default_sensitivity_dbm

    def _extinction_ratio(self, arch: Architecture) -> float:
        for role in (Role.INPUT_ENCODER, Role.WEIGHT_ENCODER):
            for inst in arch.instances_by_role(role):
                device = arch.library.get(inst.device)
                if isinstance(device, (MachZehnderModulator, MicroRingModulator)):
                    return device.extinction_ratio_db
        return self.default_extinction_ratio_db

    def optics_profile(self, arch: Architecture) -> Tuple[float, float, float]:
        """(PD sensitivity dBm, extinction ratio dB, laser wall-plug efficiency).

        These depend only on the architecture's device models and instance roles
        -- not on the scaling parameters -- so the evaluation engine memoizes
        them per shared structure across a design-space sweep.
        """
        wpe: Optional[float] = None
        for inst in arch.instances_by_role(Role.LIGHT_SOURCE):
            device = arch.library.get(inst.device)
            if isinstance(device, Laser):
                wpe = device.wall_plug_efficiency
        return (
            self._pd_sensitivity(arch),
            self._extinction_ratio(arch),
            wpe if wpe is not None else self.default_wall_plug_efficiency,
        )

    def num_channels(
        self, arch: Architecture, resolved: Optional[ResolvedArchitecture] = None
    ) -> int:
        """Laser/comb carrier count: max(physical sources, wavelength channels)."""
        counts = (resolved if resolved is not None else arch.resolve()).counts
        num_sources = sum(
            counts[inst.name] for inst in arch.instances_by_role(Role.LIGHT_SOURCE)
        )
        # A single comb source still emits one carrier per wavelength channel.
        return max(num_sources, arch.config.num_wavelengths)

    # -- main entry point -------------------------------------------------------------------
    def analyze(
        self,
        arch: Architecture,
        critical_path: Optional[CriticalPath] = None,
        optics: Optional[Tuple[float, float, float]] = None,
        resolved: Optional[ResolvedArchitecture] = None,
    ) -> LinkBudgetReport:
        """Derive the link budget.

        ``critical_path`` and ``optics`` (the :meth:`optics_profile` triple) may
        be supplied pre-computed -- e.g. memoized by the evaluation engine -- to
        skip the longest-path search and the device-parameter discovery scans.
        ``resolved`` is the evaluation run's rule table for ``arch`` (loss
        multiplicities and source counts); without one a fresh table is built.
        """
        if resolved is None:
            resolved = arch.resolve()
        if critical_path is None:
            critical_path = arch.circuit_dag(resolved.loss_multipliers).critical_path()
        if optics is None:
            optics = self.optics_profile(arch)
        insertion_loss = critical_path.insertion_loss_db
        sensitivity, extinction, wpe = optics
        num_channels = self.num_channels(arch, resolved)
        optical_mw, electrical_mw = required_laser_power_mw(
            insertion_loss_db=insertion_loss,
            pd_sensitivity_dbm=sensitivity,
            input_bits=arch.config.input_bits,
            extinction_ratio_db=extinction,
            wall_plug_efficiency=wpe,
        )
        return LinkBudgetReport(
            critical_path=critical_path,
            insertion_loss_db=insertion_loss,
            pd_sensitivity_dbm=sensitivity,
            extinction_ratio_db=extinction,
            input_bits=arch.config.input_bits,
            wall_plug_efficiency=wpe,
            laser_optical_power_mw=optical_mw,
            laser_electrical_power_mw=electrical_mw,
            num_sources=num_channels,
            total_laser_electrical_power_mw=electrical_mw * num_channels,
        )
