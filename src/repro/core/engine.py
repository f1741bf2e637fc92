"""The staged evaluation engine: composable, memoized simulation passes.

The seed's ``Simulator.run`` was a monolith; this module decomposes it into the
pipeline of the paper's Fig. 1, one pass per analysis stage::

    route -> map -> memory -> link-budget -> area -> latency/energy -> aggregate

Every pass reads and writes a shared :class:`EvaluationContext` and memoizes its
result in a shared :class:`~repro.core.cache.EvaluationCache` keyed by a canonical
fingerprint of exactly the inputs it consumes:

- the *map* pass keys on the workload digest plus the architecture's resolved
  parallel dimensions, so precision or frequency changes don't invalidate mappings;
- the *critical-path* half of the link budget keys on the netlist topology and the
  resolved per-instance losses, which for most templates depend on a subset of the
  architecture parameters (e.g. TeMPO's broadcast losses depend on H and W but not
  on the wavelength count);
- the node *floorplan* keys on the node netlist and device geometry only, so it is
  computed once per template regardless of how many grid points a sweep visits;
- data-aware *device power* averages key on the device model and the workload
  operand digest, shared by every design point that simulates the same tensors.

Architecture construction itself is a pass: templates consume the swept grid
dimensions (``num_tiles``/``cores_per_tile``/``core_height``/``core_width``) only
through lazily-evaluated symbolic scaling rules, so a built architecture can be
*rebound* to a new configuration that differs only in those fields
(:func:`rebind_architecture`) instead of re-running the template.  Fields that
templates bake into device models (bitwidths, clock, wavelengths, temporal
accumulation) force a real rebuild; :data:`REBINDABLE_FIELDS` records the contract.

``Simulator`` (:mod:`repro.core.simulator`) remains a thin facade over this engine
with caching disabled, reproducing the seed behaviour bit for bit; the
design-space explorer shares one enabled cache across all points of a sweep.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.arch.architecture import (
    Architecture,
    ArchitectureConfig,
    HeterogeneousArchitecture,
    ResolvedArchitecture,
)
from repro.core.area import AreaAnalyzer, AreaReport
from repro.core.cache import (
    EvaluationCache,
    canonical_value,
    fingerprint,
    netlist_fingerprint,
    workload_shape,
)
from repro.core.config import SimulationConfig
from repro.core.energy import EnergyAnalyzer, EnergyReport
from repro.core.latency import LatencyAnalyzer, LatencyReport
from repro.core.link_budget import LinkBudgetAnalyzer, LinkBudgetReport
from repro.core.memory_analyzer import MemoryAnalyzer, MemoryReport
from repro.core.report import merge_breakdowns, render_breakdown
from repro.core.snr import SNRAnalyzer, SNRReport
from repro.dataflow.gemm import GEMMWorkload
from repro.dataflow.mapping import DataflowMapper, Mapping
from repro.dataflow.scheduler import HeterogeneousMapper
from repro.netlist.dag import CriticalPath
from repro.netlist.netlist import Netlist
from repro.onn.workload import LayerWorkload

WorkloadLike = Union[GEMMWorkload, LayerWorkload]

#: ArchitectureConfig fields that templates consume only through symbolic scaling
#: rules (lazily evaluated from ``arch.config``), so a built architecture can be
#: rebound to a config differing only in these without re-running the template.
#: Everything else (bitwidths, clock, wavelengths, temporal accumulation) is baked
#: into device models or the dataflow spec at build time and forces a rebuild.
REBINDABLE_FIELDS = frozenset(
    {"num_tiles", "cores_per_tile", "core_height", "core_width", "name"}
)


# -- result records (shared with the Simulator facade) --------------------------------


@dataclass
class LayerResult:
    """Per-layer simulation outcome."""

    workload: GEMMWorkload
    arch_name: str
    mapping: Mapping
    latency: LatencyReport
    energy: EnergyReport

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def total_cycles(self) -> int:
        return self.latency.total_cycles

    @property
    def total_energy_pj(self) -> float:
        return self.energy.total_pj


@dataclass
class SimulationResult:
    """Aggregated result of simulating a workload set on an (heterogeneous) system.

    The merged aggregate views (``energy_breakdown_pj`` and everything derived
    from it, plus the area breakdown) are ``functools.cached_property`` values:
    they are merged once on first access and re-used afterwards, since results are
    fully populated before they are handed out.  Treat a returned result as
    immutable; mutate copies if you need to edit layers.
    """

    layers: List[LayerResult] = field(default_factory=list)
    area_reports: Dict[str, AreaReport] = field(default_factory=dict)
    link_budgets: Dict[str, LinkBudgetReport] = field(default_factory=dict)
    memory: Optional[MemoryReport] = None
    config: SimulationConfig = field(default_factory=SimulationConfig)

    # -- latency -----------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return sum(layer.latency.total_cycles for layer in self.layers)

    @cached_property
    def total_time_ns(self) -> float:
        return sum(layer.latency.total_time_ns for layer in self.layers)

    @cached_property
    def total_macs(self) -> int:
        return sum(layer.workload.num_macs for layer in self.layers)

    @property
    def effective_tops(self) -> float:
        if self.total_time_ns <= 0:
            return 0.0
        return 2.0 * self.total_macs / self.total_time_ns / 1e3

    # -- energy / power -----------------------------------------------------------
    @cached_property
    def energy_breakdown_pj(self) -> Dict[str, float]:
        return merge_breakdowns(layer.energy.breakdown_pj for layer in self.layers)

    @cached_property
    def total_energy_pj(self) -> float:
        return sum(self.energy_breakdown_pj.values())

    @property
    def total_energy_uj(self) -> float:
        return self.total_energy_pj / 1e6

    @cached_property
    def average_power_mw(self) -> Dict[str, float]:
        time_ns = self.total_time_ns
        if time_ns <= 0:
            return {}
        return {key: value / time_ns for key, value in self.energy_breakdown_pj.items()}

    @cached_property
    def total_power_w(self) -> float:
        return sum(self.average_power_mw.values()) / 1e3

    @property
    def energy_per_mac_pj(self) -> float:
        macs = self.total_macs
        return self.total_energy_pj / macs if macs else 0.0

    # -- area ---------------------------------------------------------------------
    @cached_property
    def area_breakdown_mm2(self) -> Dict[str, float]:
        merged = merge_breakdowns(
            {k: v for k, v in report.breakdown_mm2.items() if k != "Mem"}
            for report in self.area_reports.values()
        )
        if self.memory is not None and self.config.include_memory:
            merged["Mem"] = self.memory.onchip_area_mm2
        return merged

    @cached_property
    def total_area_mm2(self) -> float:
        return sum(self.area_breakdown_mm2.values())

    # -- per-layer / per-arch views ----------------------------------------------------
    def layers_on(self, arch_name: str) -> List[LayerResult]:
        return [layer for layer in self.layers if layer.arch_name == arch_name]

    def layer(self, name: str) -> LayerResult:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no simulated layer named {name!r}")

    def energy_by_arch(self) -> Dict[str, float]:
        by_arch: Dict[str, float] = {}
        for layer in self.layers:
            by_arch[layer.arch_name] = by_arch.get(layer.arch_name, 0.0) + layer.total_energy_pj
        return by_arch

    # -- rendering ------------------------------------------------------------------------
    def summary(self) -> str:
        lines = [
            f"layers simulated    : {len(self.layers)}",
            f"total MACs          : {self.total_macs}",
            f"total cycles        : {self.total_cycles}",
            f"total time          : {self.total_time_ns:.1f} ns",
            f"total energy        : {self.total_energy_uj:.4f} uJ",
            f"average power       : {self.total_power_w:.3f} W",
            f"energy per MAC      : {self.energy_per_mac_pj:.3f} pJ",
            f"total area          : {self.total_area_mm2:.3f} mm2",
            "",
            "energy breakdown (pJ):",
            render_breakdown(self.energy_breakdown_pj, unit="pJ"),
            "",
            "area breakdown (mm2):",
            render_breakdown(self.area_breakdown_mm2, unit="mm2"),
        ]
        return "\n".join(lines)


# -- architecture construction pass ---------------------------------------------------


def rebind_architecture(
    arch: Architecture,
    config: ArchitectureConfig,
    name: Optional[str] = None,
) -> Architecture:
    """Clone ``arch`` with a new config, sharing its validated symbolic structure.

    Valid only when ``config`` differs from ``arch.config`` in
    :data:`REBINDABLE_FIELDS`: those parameters enter every analysis lazily via
    ``arch.config.scaling_params()``, so the instance groups, netlists, device
    library, taxonomy and dataflow spec can be shared as-is (they are treated as
    immutable after construction).  Validation is skipped -- the structure was
    already validated when ``arch`` was built.
    """
    for field_name in structural_fields(type(config), REBINDABLE_FIELDS):
        before, after = getattr(arch.config, field_name), getattr(config, field_name)
        if after != before:
            raise ValueError(
                f"cannot rebind {arch.name!r}: field {field_name!r} differs "
                f"({before!r} -> {after!r}) "
                "and is baked into the built structure"
            )
    clone = Architecture.__new__(Architecture)
    clone.name = name if name is not None else arch.name
    clone.config = config
    clone.library = arch.library
    clone.instances = arch.instances
    clone.link_netlist = arch.link_netlist
    clone.node_netlist = arch.node_netlist
    clone.taxonomy = arch.taxonomy
    clone.dataflow = arch.dataflow
    clone.node_device_spacing_um = arch.node_device_spacing_um
    clone.node_boundary_um = arch.node_boundary_um
    # Clones share the base's structure token, so structure-keyed memoization
    # (e.g. the optics profile) hits across every rebound configuration.
    clone._repro_structure_token = structure_token(arch)
    return clone


@functools.lru_cache(maxsize=None)
def structural_fields(config_type: type, rebindable_fields: frozenset) -> Tuple[str, ...]:
    """Names of ``config_type``'s dataclass fields outside ``rebindable_fields``.

    Computed once per (config class, rebindable set) instead of walking
    ``dataclasses.fields`` at every design point.
    """
    return tuple(
        f.name for f in dataclasses.fields(config_type) if f.name not in rebindable_fields
    )


_STRUCTURE_TOKENS = itertools.count()


def structure_token(arch: Architecture) -> int:
    """Cheap identity of an architecture's shared symbolic structure.

    Assigned once per built architecture and propagated to rebound clones;
    distinct builds always get distinct tokens, so structure-keyed cache
    entries are conservative (never wrongly shared)."""
    token = getattr(arch, "_repro_structure_token", None)
    if token is None:
        token = next(_STRUCTURE_TOKENS)
        arch._repro_structure_token = token
    return token


_BUILDER_TOKENS = itertools.count()


def builder_key(builder: Callable[..., Architecture]) -> tuple:
    """Stable cache identity of an architecture builder.

    The readable ``module.qualname`` alone is ambiguous -- two closures or
    lambdas from the same scope share it -- so a monotonically-assigned token is
    attached to the function object on first use.  Distinct builder objects
    always get distinct tokens, so shared caches never confuse builders; the
    cost is that re-created closures (new objects each call) never share cache
    entries, which is the conservative direction.
    """
    token = getattr(builder, "_repro_builder_token", None)
    if token is None:
        token = next(_BUILDER_TOKENS)
        try:
            builder._repro_builder_token = token
        except (AttributeError, TypeError):
            # Builtins / partials without attribute support: fall back to the
            # object id, stable for the builder's lifetime.
            token = ("id", id(builder))
    module = getattr(builder, "__module__", "?")
    qualname = getattr(builder, "__qualname__", repr(builder))
    return (f"{module}.{qualname}", token)


def resolve_architecture(
    builder: Callable[..., Architecture],
    config: ArchitectureConfig,
    name: Optional[str] = None,
    cache: Optional[EvaluationCache] = None,
    rebindable_fields: frozenset = REBINDABLE_FIELDS,
) -> Architecture:
    """Build (or rebind) an architecture for ``config`` through the cache.

    The *build* stage is keyed by the structural projection of the config (every
    field outside ``rebindable_fields``); the *arch* stage is keyed by the full
    config, storing cheap rebound clones of the structural build.  With no cache
    (or a disabled one) this is exactly ``builder(config=config, name=...)``.
    """
    resolved_name = name if name is not None else config.name
    if cache is None or not cache.enabled:
        return builder(config=config, name=resolved_name)
    # The canonical form of fingerprint("build", builder_key, structural),
    # built field by field instead of re-walking the nested tuple.
    structural = tuple(
        (name, canonical_value(getattr(config, name)))
        for name in structural_fields(type(config), rebindable_fields)
    )
    struct_key = ("build", builder_key(builder), structural)
    # The name is deliberately outside the structural key: a hit with a
    # different name/config is detected below and rebound, never returned as-is.
    base = cache.get_or_compute(  # repro-lint: ignore[R002]
        "build", struct_key, lambda: builder(config=config, name=resolved_name)
    )
    if base.config == config and base.name == resolved_name:
        return base
    return rebind_architecture(base, config, resolved_name)


# -- the shared pass context ----------------------------------------------------------


@dataclass
class EvaluationContext:
    """Mutable state threaded through the evaluation passes.

    Each pass fills in the fields it owns; later passes read them.  A pass left
    out of a custom pipeline simply leaves its fields at their defaults, so
    downstream passes can degrade gracefully (e.g. running without the memory
    pass produces no data-movement energy, like ``include_memory=False``).

    ``resolved`` holds one :class:`~repro.arch.architecture.ResolvedArchitecture`
    per distinct architecture of the run, opened by the first pass that needs
    it (the map pass, see :meth:`resolve`): every scaling rule is evaluated at
    most once per run -- once per ``T_ACC`` overlay for the duty cycles -- and
    the map, link-budget, area and energy passes all read that one table.
    The energy analyzer memoizes its per-overlay plans on the same table, so
    they live exactly as long as the run.
    """

    system: HeterogeneousArchitecture
    config: SimulationConfig
    workloads: List[WorkloadLike]
    single_arch: Optional[Architecture] = None
    type_rules: Dict[str, str] = field(default_factory=dict)
    default_subarch: Optional[str] = None
    # route ->
    routed: List[Tuple[GEMMWorkload, Architecture]] = field(default_factory=list)
    resolved: Dict[str, ResolvedArchitecture] = field(default_factory=dict)
    # map ->
    mappings: List[Tuple[GEMMWorkload, Architecture, Mapping]] = field(default_factory=list)
    # memory ->
    memory_report: Optional[MemoryReport] = None
    memory_leakage_mw: float = 0.0
    # link budget / area ->
    link_budgets: Dict[str, LinkBudgetReport] = field(default_factory=dict)
    area_reports: Dict[str, AreaReport] = field(default_factory=dict)
    # latency / energy ->
    layers: List[LayerResult] = field(default_factory=list)
    # variation-aware accuracy (set by EvaluationEngine.run_accuracy) ->
    accuracy_request: Optional[object] = None
    snr_reports: Dict[str, SNRReport] = field(default_factory=dict)
    accuracy_report: Optional[object] = None
    # aggregate ->
    result: Optional[SimulationResult] = None

    def resolve(self, arch: Architecture) -> ResolvedArchitecture:
        """This run's rule table for ``arch``, created on first request."""
        table = self.resolved.get(arch.name)
        if table is None or table.arch is not arch:
            table = self.resolved[arch.name] = arch.resolve()
        return table

    def distinct_archs(self) -> List[Architecture]:
        """The unique sub-architectures referenced by the mapped workloads."""
        seen: Dict[str, Architecture] = {}
        for _, arch, _ in self.mappings:
            seen.setdefault(arch.name, arch)
        return list(seen.values())


class EnginePass:
    """One composable stage of the evaluation pipeline."""

    name = "pass"

    def __init__(self, engine: "EvaluationEngine") -> None:
        self.engine = engine

    def run(self, ctx: EvaluationContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RoutePass(EnginePass):
    """Assign every workload to a sub-architecture (trivial for single-arch runs)."""

    name = "route"

    def run(self, ctx: EvaluationContext) -> None:
        if ctx.single_arch is not None:
            arch = ctx.single_arch
            ctx.routed = [
                (w.gemm if isinstance(w, LayerWorkload) else w, arch)
                for w in ctx.workloads
            ]
            return
        layer_workloads = [
            w if isinstance(w, LayerWorkload) else LayerWorkload(
                gemm=w, layer_name=w.name, layer_type=w.layer_type
            )
            for w in ctx.workloads
        ]
        het_mapper = HeterogeneousMapper(
            ctx.system, type_rules=ctx.type_rules, default_subarch=ctx.default_subarch
        )
        ctx.routed = [(a.workload.gemm, a.arch) for a in het_mapper.assign(layer_workloads)]


class MapPass(EnginePass):
    """Map each routed workload onto its architecture (memoized in the mapper)."""

    name = "map"

    def run(self, ctx: EvaluationContext) -> None:
        mapper = self.engine.mapper
        ctx.mappings = [
            (gemm, arch, mapper.map(gemm, arch, ctx.resolve(arch).parallel_dims))
            for gemm, arch in ctx.routed
        ]


def _mapping_key(mapping: Mapping) -> tuple:
    """Identity tuple of a mapping: workload shape plus its blocking factors."""
    return (
        workload_shape(mapping.workload),
        mapping.arch_name,
        mapping.m_parallel,
        mapping.n_parallel,
        mapping.k_parallel,
        mapping.m_iters,
        mapping.n_iters,
        mapping.k_iters,
        mapping.forwards,
        mapping.temporal_accumulation,
        mapping.compute_cycles_per_forward,
        mapping.reconfig_events,
        mapping.reconfig_cycles_per_event,
        mapping.frequency_ghz,
    )


class MemoryPass(EnginePass):
    """Size the shared, bandwidth-adapted memory hierarchy for the workload set."""

    name = "memory"

    def run(self, ctx: EvaluationContext) -> None:
        if not ctx.mappings:
            return
        all_mappings = [m for _, _, m in ctx.mappings]
        reference_arch = ctx.mappings[0][1]
        config = self.engine.config
        if not self.engine.cache.enabled:
            ctx.memory_report = self.engine.memory_analyzer.analyze(all_mappings, reference_arch)
            ctx.memory_leakage_mw = (
                ctx.memory_report.onchip_leakage_mw if config.include_memory else 0.0
            )
            return
        # Raw tuple key from each mapping's identity fields (its traffic tables
        # are pure functions of these) -- no digesting on the hot path.
        key = (
            tuple(_mapping_key(m) for m in all_mappings),
            reference_arch.frequency_ghz,
            config.glb_buswidth_bits,
            config.memory_tech_nm,
            config.hbm_energy_pj_per_bit,
        )
        ctx.memory_report = self.engine.cache.get_or_compute(
            self.name,
            key,
            lambda: self.engine.memory_analyzer.analyze(all_mappings, reference_arch),
        )
        ctx.memory_leakage_mw = (
            ctx.memory_report.onchip_leakage_mw if config.include_memory else 0.0
        )


class LinkBudgetPass(EnginePass):
    """Per-architecture link budget, with the critical path memoized separately.

    The critical path is keyed by the link netlist topology and the *resolved*
    per-instance losses (device loss x evaluated multiplier), so architectures
    that differ only in parameters the optical path does not traverse (e.g.
    wavelength count on TeMPO) share one longest-path computation.  Linear-chain
    netlists additionally skip the graph machinery entirely when caching is on;
    the arithmetic is identical to the DAG longest-path accumulation.
    """

    name = "link_budget"

    def run(self, ctx: EvaluationContext) -> None:
        for arch in ctx.distinct_archs():
            if arch.name not in ctx.link_budgets:
                ctx.link_budgets[arch.name] = self.engine.link_budget_for(
                    arch, ctx.resolve(arch)
                )


def _chain_order(netlist: Netlist) -> Optional[List[str]]:
    """Instance order of a purely linear netlist, or None if it branches."""
    successor: Dict[str, str] = {}
    predecessor: Dict[str, str] = {}
    for src, dst in netlist.edge_list():
        if src in successor or dst in predecessor:
            return None
        successor[src] = dst
        predecessor[dst] = src
    if not successor:
        return None
    starts = [name for name in netlist.instances if name not in predecessor]
    if len(starts) != 1:
        return None
    order = [starts[0]]
    while order[-1] in successor:
        order.append(successor[order[-1]])
    if len(order) != len(netlist):
        return None
    return order


class ReceiverPrecisionPass(EnginePass):
    """Receiver SNR and effective resolvable bits for every target architecture.

    Derives the received optical power from the (memoized) link budget, applies
    the accuracy request's deterministic noise penalty (the static part of any
    :class:`~repro.variation.models.LinkLossDrift`), and memoizes the resulting
    :class:`~repro.core.snr.SNRReport` on the link's operating point -- two
    design points with the same insertion loss, laser power, clock and static
    penalty share one SNR computation.
    """

    name = "receiver_precision"

    def run(self, ctx: EvaluationContext) -> None:
        request = ctx.accuracy_request
        static_loss_db = (
            float(request.noise.static_loss_db()) if request is not None else 0.0
        )
        for arch in self._target_archs(ctx):
            if arch.name in ctx.snr_reports:
                continue
            link = ctx.link_budgets.get(arch.name)
            if link is None:
                link = self.engine.link_budget_for(arch, ctx.resolve(arch))
                ctx.link_budgets[arch.name] = link
            ctx.snr_reports[arch.name] = self._snr(arch, link, static_loss_db)

    @staticmethod
    def _target_archs(ctx: EvaluationContext) -> List[Architecture]:
        archs = ctx.distinct_archs()
        if not archs and ctx.single_arch is not None:
            archs = [ctx.single_arch]
        return archs

    def _snr(
        self, arch: Architecture, link: LinkBudgetReport, static_loss_db: float
    ) -> SNRReport:
        analyzer = self.engine.snr_analyzer
        bandwidth_ghz = arch.config.frequency_ghz

        def compute() -> SNRReport:
            received_mw = link.laser_optical_power_mw * 10.0 ** (
                -(link.insertion_loss_db + static_loss_db) / 10.0
            )
            return analyzer.analyze_received_power(received_mw, bandwidth_ghz)

        cache = self.engine.cache
        if not cache.enabled:
            return compute()
        key = fingerprint(
            link.laser_optical_power_mw,
            link.insertion_loss_db,
            bandwidth_ghz,
            static_loss_db,
            analyzer.responsivity_a_per_w,
            analyzer.load_resistance_ohm,
            analyzer.temperature_k,
            analyzer.rin_db_per_hz,
        )
        return cache.get_or_compute(self.name, key, compute)


class MonteCarloAccuracyPass(EnginePass):
    """Monte Carlo inference accuracy under the context's accuracy request.

    The whole study -- every trial -- is memoized as one entry keyed by the
    (architecture-derived link operating point + DAC/ADC bits, noise spec,
    model, inputs, trials, seed) triple, so re-evaluating an unchanged
    (arch, noise-spec, workload) combination is a single cache hit.  Fresh
    studies run in process (:func:`~repro.variation.montecarlo.run_monte_carlo`).
    """

    name = "mc_accuracy"

    def run(self, ctx: EvaluationContext) -> None:
        request = ctx.accuracy_request
        if request is None:
            return
        # Lazy import: repro.variation imports the engine for its convenience
        # entry points, so the engine only touches it when accuracy is asked for.
        from repro.onn.layers import dtype_mode
        from repro.variation.montecarlo import LinkOperatingPoint, run_monte_carlo
        from repro.variation.sampler import rng_mode

        archs = ReceiverPrecisionPass._target_archs(ctx)
        if not archs:
            raise ValueError("accuracy evaluation needs a target architecture")
        arch = archs[0]
        link_report = ctx.link_budgets[arch.name]
        link = LinkOperatingPoint(
            optical_power_mw=link_report.laser_optical_power_mw,
            insertion_loss_db=link_report.insertion_loss_db,
            bandwidth_ghz=arch.config.frequency_ghz,
            analyzer=self.engine.snr_analyzer,
        )
        nominal_snr = ctx.snr_reports.get(arch.name)
        bits = (
            arch.config.input_bits,
            arch.config.weight_bits,
            arch.config.output_bits,
        )

        def compute():
            return run_monte_carlo(
                request,
                input_bits=bits[0],
                weight_bits=bits[1],
                output_bits=bits[2],
                link=link,
                nominal_snr=nominal_snr,
            )

        cache = self.engine.cache
        if not cache.enabled:
            ctx.accuracy_report = compute()
            return
        # Every active numerics mode is part of the key: philox streams differ
        # from the SeedSequence contract by construction, and float32 studies
        # round differently -- so an A/B comparison within one process must
        # never serve one mode's memoized study to another.  nominal_snr is in
        # the key because compute() reads it: two contexts with identical
        # request/bits/link but different SNR reports (e.g. divergent receiver
        # sweeps sharing one cache) must not serve each other's studies.
        key = fingerprint(
            request.fingerprint(),
            bits,
            link,
            nominal_snr,
            rng_mode(),
            dtype_mode(),
        )
        ctx.accuracy_report = cache.get_or_compute(self.name, key, compute)


class AreaPass(EnginePass):
    """Per-architecture area, with the node floorplan memoized across the sweep."""

    name = "area"

    def run(self, ctx: EvaluationContext) -> None:
        for arch in ctx.distinct_archs():
            if arch.name not in ctx.area_reports:
                ctx.area_reports[arch.name] = self._analyze(
                    arch, ctx.memory_report, ctx.resolve(arch)
                )

    def _analyze(
        self,
        arch: Architecture,
        memory_report: Optional[MemoryReport],
        resolved: ResolvedArchitecture,
    ) -> AreaReport:
        engine = self.engine
        # The breakdown itself is cheap arithmetic over the run's instance
        # counts; only the node floorplan is worth memoizing across runs.
        node_areas = self._node_areas(arch) if engine.cache.enabled else None
        return engine.area_analyzer.analyze(
            arch, memory_report=memory_report, node_areas=node_areas, resolved=resolved
        )

    def _node_areas(self, arch: Architecture) -> Optional[Tuple[float, float]]:
        """Memoized (floorplanned, naive) per-node areas for composite blocks.

        Keyed by the node netlist plus the *geometry* of exactly the devices it
        instantiates -- the floorplan reads nothing else from the library.
        """
        engine = self.engine
        if arch.node_netlist is None:
            return None
        geometry = tuple(
            (inst.device,
             arch.library.get(inst.device).spec.width_um,
             arch.library.get(inst.device).spec.height_um)
            for inst in arch.node_netlist.instances.values()
        )
        key = (
            netlist_fingerprint(arch.node_netlist),
            geometry,
            engine.config.use_layout_aware_area,
            arch.node_device_spacing_um,
            arch.node_boundary_um,
        )
        return engine.cache.get_or_compute(
            "floorplan",
            key,
            lambda: engine.area_analyzer.node_areas(
                arch, layout_aware=engine.config.use_layout_aware_area
            ),
        )


class LayerAnalysisPass(EnginePass):
    """Latency and data-aware energy for every mapped layer."""

    name = "layer_analysis"

    def run(self, ctx: EvaluationContext) -> None:
        engine = self.engine
        hierarchy = ctx.memory_report.hierarchy if ctx.memory_report is not None else None
        for gemm, arch, mapping in ctx.mappings:
            latency = engine.latency_analyzer.analyze(mapping, hierarchy)
            if engine.config.include_memory and hierarchy is not None:
                layer_memory_pj = sum(
                    hierarchy.access_energy_pj(level, bits)
                    for level, bits in mapping.traffic_bits.items()
                    if bits > 0
                )
            else:
                layer_memory_pj = 0.0
            energy = engine.energy_analyzer.analyze(
                arch,
                mapping,
                link_budget=ctx.link_budgets.get(arch.name),
                memory_energy_pj=layer_memory_pj,
                memory_static_power_mw=ctx.memory_leakage_mw,
                resolved=ctx.resolve(arch),
            )
            ctx.layers.append(
                LayerResult(
                    workload=gemm,
                    arch_name=arch.name,
                    mapping=mapping,
                    latency=latency,
                    energy=energy,
                )
            )


class AggregatePass(EnginePass):
    """Assemble the SimulationResult from the context."""

    name = "aggregate"

    def run(self, ctx: EvaluationContext) -> None:
        ctx.result = SimulationResult(
            layers=ctx.layers,
            area_reports=ctx.area_reports,
            link_budgets=ctx.link_budgets,
            memory=ctx.memory_report,
            config=self.engine.config,
        )


# -- pass observation hook ------------------------------------------------------------

#: Registered observer callbacks, swapped atomically as a tuple under the lock
#: so concurrent registration from worker threads never corrupts the sequence
#: and engine runs iterate a consistent snapshot without holding the lock.
PassObserver = Callable[[str, "EvaluationEngine", float], None]
_OBSERVER_LOCK = threading.Lock()
_PASS_OBSERVERS: Tuple[PassObserver, ...] = ()


@contextlib.contextmanager
def observe_passes(callback: PassObserver):
    """Register ``callback`` for the duration of the ``with`` block.

    The callback fires after each pass of *every* engine run in the process
    (including engines created inside the block) as ``callback(pass_name,
    engine, elapsed_s)`` with the pass's wall-clock seconds.  Registration is
    scoped, stacked and thread-safe: the same callback may be registered
    several times (each ``with`` block removes exactly one registration), and
    concurrent observers each receive every event and are expected to filter
    for the engines they care about (e.g. by ``engine.cache`` identity) rather
    than assume exclusive ownership.
    """
    global _PASS_OBSERVERS
    with _OBSERVER_LOCK:
        _PASS_OBSERVERS = _PASS_OBSERVERS + (callback,)
    try:
        yield callback
    finally:
        with _OBSERVER_LOCK:
            observers = list(_PASS_OBSERVERS)
            observers.remove(callback)
            _PASS_OBSERVERS = tuple(observers)


# -- the engine -----------------------------------------------------------------------


class EvaluationEngine:
    """Drives the staged pipeline over a (heterogeneous) system.

    Parameters mirror the classic ``Simulator``; additionally ``cache`` supplies
    the shared memoization store (pass an :class:`EvaluationCache` to share one
    across many engines, e.g. all design points of a sweep; the default is a
    fresh enabled cache private to this engine), and ``passes`` may replace the
    default pipeline with a custom sequence of :class:`EnginePass` factories.
    """

    DEFAULT_PASSES = (
        RoutePass,
        MapPass,
        MemoryPass,
        LinkBudgetPass,
        AreaPass,
        LayerAnalysisPass,
        AggregatePass,
    )

    def __init__(
        self,
        system: Union[Architecture, HeterogeneousArchitecture],
        config: Optional[SimulationConfig] = None,
        type_rules: Optional[Dict[str, str]] = None,
        default_subarch: Optional[str] = None,
        cache: Optional[EvaluationCache] = None,
        passes: Optional[Sequence[Callable[["EvaluationEngine"], EnginePass]]] = None,
    ) -> None:
        self.config = config or SimulationConfig()
        if isinstance(system, Architecture):
            self.system = HeterogeneousArchitecture(
                name=system.name, subarchs={system.name: system}
            )
            self.single_arch: Optional[Architecture] = system
        else:
            if len(system) == 0:
                raise ValueError("heterogeneous system has no sub-architectures")
            self.system = system
            self.single_arch = None
        self.type_rules = type_rules or {}
        self.default_subarch = default_subarch
        self.cache = cache if cache is not None else EvaluationCache()
        self.mapper = DataflowMapper(cache=self.cache)
        self.latency_analyzer = LatencyAnalyzer()
        self.energy_analyzer = EnergyAnalyzer(self.config, cache=self.cache)
        self.area_analyzer = AreaAnalyzer(self.config)
        self.link_budget_analyzer = LinkBudgetAnalyzer()
        self.memory_analyzer = MemoryAnalyzer(self.config)
        self.snr_analyzer = SNRAnalyzer()
        self.passes: List[EnginePass] = [
            factory(self) for factory in (passes or self.DEFAULT_PASSES)
        ]
        self._accuracy_pipeline: Optional[List[EnginePass]] = None

    # -- workload normalization ---------------------------------------------------------
    @staticmethod
    def normalize_workloads(
        workloads: Union[WorkloadLike, Sequence[WorkloadLike]],
    ) -> List[WorkloadLike]:
        if isinstance(workloads, (GEMMWorkload, LayerWorkload)):
            return [workloads]
        items = list(workloads)
        if not items:
            raise ValueError("no workloads to simulate")
        return items

    # -- main entry points --------------------------------------------------------------
    def context_for(
        self,
        workloads: Union[WorkloadLike, Sequence[WorkloadLike]],
        single_arch: Optional[Architecture] = None,
    ) -> EvaluationContext:
        if single_arch is not None:
            system = HeterogeneousArchitecture(
                name=single_arch.name, subarchs={single_arch.name: single_arch}
            )
        else:
            system = self.system
            single_arch = self.single_arch
        return EvaluationContext(
            system=system,
            config=self.config,
            workloads=self.normalize_workloads(workloads),
            single_arch=single_arch,
            type_rules=self.type_rules,
            default_subarch=self.default_subarch,
        )

    # -- memoized per-architecture analyses (shared by several passes) ------------------
    def link_budget_for(
        self, arch: Architecture, resolved: Optional[ResolvedArchitecture] = None
    ) -> LinkBudgetReport:
        """The architecture's link budget, with critical path and optics memoized.

        ``resolved`` is the run's rule table for ``arch`` (a fresh one when
        omitted).
        """
        analyzer = self.link_budget_analyzer
        cache = self.cache
        if resolved is None:
            resolved = arch.resolve()
        if not cache.enabled:
            return analyzer.analyze(arch, resolved=resolved)
        optics = cache.get_or_compute(
            "optics_profile",
            structure_token(arch),
            lambda: analyzer.optics_profile(arch),
        )
        return analyzer.analyze(
            arch,
            critical_path=self._critical_path_for(arch, resolved),
            optics=optics,
            resolved=resolved,
        )

    def _critical_path_for(
        self, arch: Architecture, resolved: Optional[ResolvedArchitecture] = None
    ) -> CriticalPath:
        cache = self.cache
        netlist = arch.link_netlist
        multipliers = (resolved if resolved is not None else arch.resolve()).loss_multipliers
        loss_items = tuple(
            (
                name,
                arch.library.get(inst.device).insertion_loss_db,
                multipliers.get(name, 1.0),
            )
            for name, inst in netlist.instances.items()
        )
        key = (netlist_fingerprint(netlist), loss_items)

        def compute() -> CriticalPath:
            if cache.enabled:
                chain = _chain_order(netlist)
                if chain is not None:
                    losses = {name: loss * mult for name, loss, mult in loss_items}
                    total = losses[chain[0]]
                    # Same accumulation order (and tie-breaking epsilon) as the
                    # weighted DAG longest path over a linear chain.
                    edge_sum = 0.0
                    for dst in chain[1:]:
                        edge_sum += losses[dst] + 1e-9
                    return CriticalPath(
                        instances=tuple(chain),
                        insertion_loss_db=float(edge_sum + total),
                    )
            return arch.circuit_dag(multipliers).critical_path()

        # The key is the exact projection critical_path() is a function of
        # (netlist topology + per-instance losses), not the arch object itself.
        return cache.get_or_compute("critical_path", key, compute)  # repro-lint: ignore[R002]

    def _execute(
        self,
        ctx: EvaluationContext,
        passes: Optional[Sequence[EnginePass]] = None,
    ) -> EvaluationContext:
        for stage in passes if passes is not None else self.passes:
            observers = _PASS_OBSERVERS  # atomic tuple snapshot, re-read per stage
            if observers:
                start = time.perf_counter()
                stage.run(ctx)
                elapsed = time.perf_counter() - start
                for callback in observers:
                    callback(stage.name, self, elapsed)
            else:
                stage.run(ctx)
        return ctx

    def run(self, workloads: Union[WorkloadLike, Sequence[WorkloadLike]]) -> SimulationResult:
        """Run the full pass pipeline and return the aggregated result."""
        ctx = self._execute(self.context_for(workloads))
        if ctx.result is None:
            raise RuntimeError(
                "pipeline finished without an aggregate pass; "
                "append AggregatePass (or read the context directly via run_context)"
            )
        return ctx.result

    def run_context(
        self, workloads: Union[WorkloadLike, Sequence[WorkloadLike]]
    ) -> EvaluationContext:
        """Like :meth:`run` but returns the full pass context (no aggregate required)."""
        return self._execute(self.context_for(workloads))

    def run_accuracy(self, request, arch: Optional[Architecture] = None):
        """Monte Carlo inference accuracy of ``request`` on ``arch``.

        Runs the variation-aware accuracy pipeline -- ``receiver_precision``
        (link budget -> SNR -> effective resolvable bits) followed by
        ``mc_accuracy`` (the Monte Carlo study itself) -- against this engine's
        shared cache, so unchanged (architecture, noise-spec, workload) triples
        are pure cache hits.  ``request`` is a
        :class:`~repro.variation.montecarlo.AccuracyRequest`; ``arch`` defaults
        to the engine's single architecture.  Returns the
        :class:`~repro.variation.accuracy.AccuracyReport`.
        """
        target = arch if arch is not None else self.single_arch
        if target is None:
            raise ValueError(
                "accuracy evaluation needs a single target architecture; pass "
                "arch= explicitly for heterogeneous systems"
            )
        system = HeterogeneousArchitecture(
            name=target.name, subarchs={target.name: target}
        )
        ctx = EvaluationContext(
            system=system,
            config=self.config,
            workloads=[],
            single_arch=target,
        )
        ctx.accuracy_request = request
        if self._accuracy_pipeline is None:
            self._accuracy_pipeline = [
                ReceiverPrecisionPass(self),
                MonteCarloAccuracyPass(self),
            ]
        self._execute(ctx, passes=self._accuracy_pipeline)
        return ctx.accuracy_report

    def run_for(
        self,
        arch: Architecture,
        workloads: Union[WorkloadLike, Sequence[WorkloadLike]],
    ) -> SimulationResult:
        """Run the pipeline for a different single architecture, reusing this
        engine's analyzers, passes and cache.

        The per-point workhorse of the design-space explorer: the architecture
        travels through the (thread-safe) pass context, so one engine serves
        every grid point -- concurrently, under a parallel executor -- without
        re-constructing the analyzer set each time.
        """
        ctx = self._execute(self.context_for(workloads, single_arch=arch))
        if ctx.result is None:
            raise RuntimeError("pipeline finished without an aggregate pass")
        return ctx.result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvaluationEngine(system={self.system.name!r}, "
            f"passes={[p.name for p in self.passes]}, cache={self.cache!r})"
        )
