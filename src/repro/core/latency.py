"""Latency analysis: cycle-accurate accounting of one layer on one architecture.

Implements the paper's layer latency model

    tau_total = tau_load(input + weight) + tau_write_out + I * (tau_compute + tau_reconfig)

where ``I`` is the range-restriction forward count, ``tau_compute`` comes from the
dataflow mapping's nested-loop iteration counts, ``tau_reconfig`` from the
stationary-operand reprogramming time, and the load/write terms from streaming the
layer operands through the GLB at its provisioned bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.dataflow.mapping import Mapping
from repro.memory.hierarchy import MemoryHierarchy, MemoryLevel


@dataclass
class LatencyReport:
    """Cycle and wall-clock latency breakdown for one mapped workload."""

    load_cycles: int
    compute_cycles: int
    reconfig_cycles: int
    writeout_cycles: int
    frequency_ghz: float
    num_macs: int

    @property
    def total_cycles(self) -> int:
        return self.load_cycles + self.compute_cycles + self.reconfig_cycles + self.writeout_cycles

    @property
    def total_time_ns(self) -> float:
        return self.total_cycles / self.frequency_ghz

    @property
    def compute_time_ns(self) -> float:
        return self.compute_cycles / self.frequency_ghz

    @property
    def effective_tops(self) -> float:
        """Achieved tera-operations per second (2 ops per MAC)."""
        if self.total_time_ns <= 0:
            return 0.0
        return 2.0 * self.num_macs / self.total_time_ns / 1e3

    @property
    def compute_bound_fraction(self) -> float:
        """Fraction of the total latency spent actually computing."""
        total = self.total_cycles
        return self.compute_cycles / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyReport(total={self.total_cycles} cycles / {self.total_time_ns:.1f} ns, "
            f"compute={self.compute_cycles}, reconfig={self.reconfig_cycles})"
        )


class LatencyAnalyzer:
    """Turns a dataflow mapping (plus the memory hierarchy) into a latency report."""

    def __init__(self, overlap_memory_with_compute: bool = False) -> None:
        #: when True, operand loading is assumed to be double-buffered behind compute
        #: (latency hiding); the paper's baseline model keeps the terms additive.
        self.overlap_memory_with_compute = overlap_memory_with_compute

    @staticmethod
    def glb_bytes_per_ns(hierarchy: Optional[MemoryHierarchy]) -> float:
        """The GLB's streaming bandwidth in bytes/ns (0.0 without a hierarchy).

        A pure function of the hierarchy, so a caller analyzing many mappings
        against one hierarchy reads it once (see :meth:`analyze_at`).
        """
        if hierarchy is None:
            return 0.0
        return hierarchy.level(MemoryLevel.GLB).bandwidth_bits_per_ns / 8.0

    @staticmethod
    def _streaming_cycles(
        num_bytes: float, bandwidth_bytes_per_ns: float, frequency_ghz: float
    ) -> int:
        if num_bytes <= 0 or bandwidth_bytes_per_ns <= 0:
            return 0
        time_ns = num_bytes / bandwidth_bytes_per_ns
        return int(math.ceil(time_ns * frequency_ghz))

    def analyze(
        self,
        mapping: Mapping,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> LatencyReport:
        return self.analyze_at(mapping, self.glb_bytes_per_ns(hierarchy))

    def analyze_at(self, mapping: Mapping, glb_bytes_per_ns: float) -> LatencyReport:
        """:meth:`analyze` with the GLB bandwidth already read (:meth:`glb_bytes_per_ns`)."""
        workload = mapping.workload
        load_bytes = workload.input_bytes + workload.weight_bytes
        load_cycles = self._streaming_cycles(
            load_bytes, glb_bytes_per_ns, mapping.frequency_ghz
        )
        writeout_cycles = self._streaming_cycles(
            workload.output_bytes, glb_bytes_per_ns, mapping.frequency_ghz
        )
        if self.overlap_memory_with_compute:
            # Perfect double buffering: only the portion not hidden behind compute stalls.
            load_cycles = max(0, load_cycles - mapping.compute_cycles)
            writeout_cycles = max(0, writeout_cycles - mapping.compute_cycles)
        return LatencyReport(
            load_cycles=load_cycles,
            compute_cycles=mapping.compute_cycles,
            reconfig_cycles=mapping.reconfig_cycles,
            writeout_cycles=writeout_cycles,
            frequency_ghz=mapping.frequency_ghz,
            num_macs=workload.num_macs,
        )
