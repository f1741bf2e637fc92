"""Mapping GEMM workloads onto photonic tensor cores.

The mapper partitions a GEMM across the architecture's parallel dimensions (spatial
rows/columns, cores, tiles, wavelengths) and time, producing a :class:`Mapping` that
records:

- the blocking factors and iteration counts of the nested loop (Fig. 4);
- the hierarchical accumulation plan (spectral and photocurrent parallel reduction,
  analog temporal integration, digital sequential accumulation);
- the range-restriction multiplier ``I`` and the reconfiguration penalty for
  weight-stationary PTCs (Section III-C2);
- per-cycle operand bandwidth demand and per-level memory traffic, which feed the
  bandwidth-adaptive memory analysis and the data-movement energy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.arch.architecture import Architecture
from repro.arch.dataflow_spec import Dataflow
from repro.dataflow.gemm import GEMMWorkload
from repro.devices.electrical import Integrator
from repro.memory.hierarchy import MemoryLevel


@dataclass
class Mapping:
    """The result of mapping one GEMM workload onto one architecture."""

    workload: GEMMWorkload
    arch_name: str
    m_parallel: int
    n_parallel: int
    k_parallel: int
    m_iters: int
    n_iters: int
    k_iters: int
    forwards: int
    temporal_accumulation: int
    compute_cycles_per_forward: int
    reconfig_events: int
    reconfig_cycles_per_event: int
    frequency_ghz: float
    bytes_per_cycle: Dict[str, float] = field(default_factory=dict)
    traffic_bits: Dict[MemoryLevel, float] = field(default_factory=dict)

    # -- cycle accounting -----------------------------------------------------------
    @property
    def compute_cycles(self) -> int:
        """Compute cycles including the range-restriction forwards multiplier."""
        return self.forwards * self.compute_cycles_per_forward

    @property
    def reconfig_cycles(self) -> int:
        """Total stall cycles spent reprogramming the stationary operand."""
        return self.forwards * self.reconfig_events * self.reconfig_cycles_per_event

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.reconfig_cycles

    @property
    def compute_time_ns(self) -> float:
        return self.compute_cycles / self.frequency_ghz

    @property
    def total_time_ns(self) -> float:
        return self.total_cycles / self.frequency_ghz

    @property
    def output_samples(self) -> int:
        """Number of A/D conversions (per readout lane) over the whole GEMM."""
        return self.forwards * self.m_iters * self.n_iters * max(
            1, math.ceil(self.k_iters / self.temporal_accumulation)
        )

    # -- efficiency metrics ------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Average spatial utilization of the PTC's parallel MAC lanes."""
        used = self.workload.num_macs
        provisioned = (
            self.m_iters * self.n_iters * self.k_iters
            * self.m_parallel * self.n_parallel * self.k_parallel
        )
        return used / provisioned if provisioned else 0.0

    @property
    def macs_per_cycle_effective(self) -> float:
        return self.workload.num_macs * self.forwards / max(self.total_cycles, 1)

    def params_overlay(self) -> Dict[str, float]:
        """Architecture-parameter overrides implied by this mapping (e.g. T_ACC)."""
        return {"T_ACC": float(self.temporal_accumulation)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Mapping({self.workload.name!r} -> {self.arch_name!r}, "
            f"cycles={self.total_cycles}, util={self.utilization:.2f})"
        )


class DataflowMapper:
    """Maps GEMM workloads onto architectures following their dataflow specs.

    ``cache`` (an :class:`~repro.core.cache.EvaluationCache`) optionally memoizes
    whole mappings on the *resolved* mapping inputs -- the workload's shape and
    bitwidths, the evaluated parallel dimensions, the forwards multiplier, the
    integration limit and the reconfiguration model -- so two architecture
    configurations that resolve to the same dataflow, and two workloads of the
    same shape, share one mapping record.
    """

    def __init__(
        self,
        max_integration_cycles: Optional[int] = None,
        cache: Optional["EvaluationCache"] = None,
    ) -> None:
        self.max_integration_cycles = max_integration_cycles
        self.cache = cache

    # -- helpers -----------------------------------------------------------------------
    def _integration_limit(self, arch: Architecture) -> int:
        """Longest analog integration window the architecture supports."""
        if self.max_integration_cycles is not None:
            return max(1, self.max_integration_cycles)
        for inst in arch.instances:
            if inst.is_composite:
                continue
            device = arch.library.get(inst.device)
            if isinstance(device, Integrator):
                return max(1, device.max_integration_cycles)
        return 1

    def _limits(self, arch: Architecture) -> Tuple[int, int]:
        """``(integration limit, weight reconfig cycles)``: device scans only."""
        return self._integration_limit(arch), arch.weight_reconfig_cycles()

    def _reconfig_events(self, arch: Architecture, m_iters: int, n_iters: int, k_iters: int,
                         workload: GEMMWorkload) -> int:
        """Number of stationary-operand reloads over the GEMM."""
        if arch.dataflow.stationary is not Dataflow.WEIGHT_STATIONARY:
            return 0
        if not arch.dataflow.weight_reuse_requires_reconfig:
            return 0
        # One reload per distinct weight block (K x N tiling); the block is reused
        # across the M iterations.
        return n_iters * k_iters

    # -- main entry point ------------------------------------------------------------------
    def map(
        self,
        workload: GEMMWorkload,
        arch: Architecture,
        dims: Optional[Dict[str, int]] = None,
    ) -> Mapping:
        """Map ``workload`` onto ``arch`` and return the mapping record.

        ``dims`` are the architecture's resolved parallel extents (an
        evaluation run reads them from its rule table); evaluated from the
        dataflow rules when omitted.
        """
        if dims is None:
            dims = arch.resolve().parallel_dims
        if self.cache is not None and self.cache.enabled:
            from repro.core.cache import workload_shape
            from repro.core.engine import structure_token

            # Integration limit and reconfig time scan device models only, so
            # they are constant per shared architecture structure.
            token = structure_token(arch)
            limits = self.cache.get_or_compute(
                "mapper_limits",
                (token, self.max_integration_cycles),
                lambda: self._limits(arch),
            )
            # Exempt from content addressing: the mapping reads only the GEMM's
            # shape and bitwidths, never its operand values, so the key is the
            # shape signature.  A hit built for another workload object is
            # rebound to the caller's below, so data-aware energy downstream
            # always reads the caller's own operands.
            key = (
                workload_shape(workload),
                arch.name,
                dims["M"],
                dims["N"],
                dims["K"],
                arch.forwards_per_output,
                limits,
                arch.dataflow.stationary.value,
                arch.dataflow.weight_reuse_requires_reconfig,
                arch.frequency_ghz,
            )
            mapping = self.cache.get_or_compute(
                "map", key, lambda: self._map_impl(workload, arch, dims, limits)
            )
            if mapping.workload is not workload:
                mapping = dataclasses.replace(mapping, workload=workload)
            return mapping
        return self._map_impl(workload, arch, dims, self._limits(arch))

    def _map_impl(
        self,
        workload: GEMMWorkload,
        arch: Architecture,
        dims: Dict[str, int],
        limits: Tuple[int, int],
    ) -> Mapping:
        m_par, n_par, k_par = dims["M"], dims["N"], dims["K"]

        m_iters = math.ceil(workload.m / m_par)
        n_iters = math.ceil(workload.n / n_par)
        k_iters = math.ceil(workload.k / k_par)
        compute_cycles = m_iters * n_iters * k_iters

        integration_limit, reconfig_cycles = limits
        temporal_accumulation = max(1, min(integration_limit, k_iters))

        reconfig_events = self._reconfig_events(arch, m_iters, n_iters, k_iters, workload)
        reconfig_cycles_per_event = reconfig_cycles if reconfig_events else 0

        forwards = arch.forwards_per_output

        bytes_per_cycle = self._bytes_per_cycle(workload, m_par, n_par, k_par,
                                                temporal_accumulation)
        traffic = self._memory_traffic(
            workload, m_par, n_par, k_par, m_iters, n_iters, k_iters,
            temporal_accumulation, forwards,
        )

        return Mapping(
            workload=workload,
            arch_name=arch.name,
            m_parallel=m_par,
            n_parallel=n_par,
            k_parallel=k_par,
            m_iters=m_iters,
            n_iters=n_iters,
            k_iters=k_iters,
            forwards=forwards,
            temporal_accumulation=temporal_accumulation,
            compute_cycles_per_forward=compute_cycles,
            reconfig_events=reconfig_events,
            reconfig_cycles_per_event=reconfig_cycles_per_event,
            frequency_ghz=arch.frequency_ghz,
            bytes_per_cycle=bytes_per_cycle,
            traffic_bits=traffic,
        )

    # -- demand / traffic models ------------------------------------------------------------
    def _bytes_per_cycle(
        self,
        workload: GEMMWorkload,
        m_par: int,
        n_par: int,
        k_par: int,
        temporal_accumulation: int,
    ) -> Dict[str, float]:
        """Operand bytes the PTC consumes/produces per clock cycle."""
        input_bytes = m_par * k_par * workload.input_bits / 8.0
        weight_bytes = k_par * n_par * workload.weight_bits / 8.0
        output_bytes = m_par * n_par * workload.output_bits / 8.0 / temporal_accumulation
        return {
            "input": input_bytes,
            "weight": weight_bytes,
            "output": output_bytes,
            "total": input_bytes + weight_bytes + output_bytes,
        }

    def _memory_traffic(
        self,
        workload: GEMMWorkload,
        m_par: int,
        n_par: int,
        k_par: int,
        m_iters: int,
        n_iters: int,
        k_iters: int,
        temporal_accumulation: int,
        forwards: int,
    ) -> Dict[MemoryLevel, float]:
        """Bits moved at each memory level over the whole GEMM.

        Reuse model: weights stream from HBM once per layer (activations and outputs
        stay on chip between layers for single-sample inference); the GLB holds a
        full layer and serves each operand once per forward pass; the local buffer
        is filled once per forward and additionally spills/reloads the digital
        partial sums once per analog integration window; the register file feeds the
        PTC its per-cycle operands.
        """
        input_bits = workload.m * workload.k * workload.input_bits
        weight_bits = workload.k * workload.n * workload.weight_bits
        output_bits = workload.m * workload.n * workload.output_bits

        hbm_bits = weight_bits
        glb_bits = forwards * (input_bits + weight_bits) + output_bits

        # LB: operand fill once per forward, plus partial-sum write/read traffic for
        # the digital sequential accumulation across integration windows.
        partial_sum_passes = max(1, math.ceil(k_iters / temporal_accumulation))
        lb_bits = forwards * (input_bits + weight_bits)
        lb_bits += 2.0 * output_bits * partial_sum_passes

        cycles = forwards * m_iters * n_iters * k_iters
        rf_bits = cycles * (
            m_par * k_par * workload.input_bits + k_par * n_par * workload.weight_bits
        )
        rf_bits += (
            forwards
            * m_iters
            * n_iters
            * max(1, math.ceil(k_iters / temporal_accumulation))
            * m_par
            * n_par
            * workload.output_bits
        )

        return {
            MemoryLevel.HBM: float(hbm_bits),
            MemoryLevel.GLB: float(glb_bits),
            MemoryLevel.LB: float(lb_bits),
            MemoryLevel.RF: float(rf_bits),
        }
