"""Reference implementations the optimized product paths are checked against.

These are the straightforward Python loops the vectorized code replaced.  They
live only here, in the test suite, as equivalence oracles:

- :func:`im2col_loop` -- Conv2d's per-window im2col double loop;
- :func:`loop_monte_carlo` -- the one-trial-at-a-time Monte Carlo study
  (a full :func:`~repro.variation.accuracy.noisy_forward` per trial), with
  the signature of :func:`repro.variation.montecarlo.run_monte_carlo`
  (minus its ``draws`` slab: each trial draws from its own generator);
- :func:`group_trials_by_bits_loop` -- ``noisy_forward_batch``'s trial
  grouping with three ``receiver_limited_bits`` calls per trial.

Next to them sit the plain numpy formulas that allocation-light kernels
replaced, each kept verbatim so the rewrite can be checked bit for bit:

- :func:`quantize_uniform_reference`, :func:`quantize_with_scale_reference`
  -- ``np.round(v / scale) * scale`` with an ``np.abs`` peak;
- :func:`gelu_reference` -- the tanh GELU with ``x**3``;
- :func:`zero_fraction_reference` -- ``GEMMWorkload`` sparsity as a mean.

And the whole-array expressions that the blocked and in-place ONN kernels
replaced, with the same operations in the same order, so each rewrite must
match them bit for bit:

- :func:`gelu_expression_reference` -- GELU with the cube as ``x * x * x``;
- :func:`softmax_reference` -- attention's softmax, one temporary per step;
- :func:`layer_norm_reference` -- ``LayerNorm`` as one expression;
- :func:`attention_batch_reference` -- ``MultiHeadAttention.forward_batch``
  with the out-of-place score scaling and :func:`softmax_reference`.

And the analysis loops that the per-run rule table and the energy plan
replaced, which re-evaluate every scaling rule where they need it:

- :func:`eval_tree` -- the recursive tree walk over a scaling expression's
  AST that compiled :class:`~repro.netlist.scaling.ScalingRule` functions
  replaced;
- :func:`energy_report_reference` -- ``EnergyAnalyzer.analyze`` as one loop
  over the energy instances;
- :func:`area_report_reference` -- ``AreaAnalyzer.analyze`` as one loop over
  the area instances.

And the per-point link and latency analyses that the batched passes replaced:

- :func:`link_budget_reference` -- a link budget from the uncached DAG
  critical path at freshly evaluated loss multiplicities, the light sources
  counted by role, and the analyzer's own optics scan and Eq. (1);
- :func:`latency_report_reference` -- ``LatencyAnalyzer.analyze`` reading the
  GLB bandwidth from the hierarchy at every streaming term.
"""

from __future__ import annotations

import ast
import math
import operator
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.arch.architecture import Architecture
from repro.arch.instance import Activity, Role
from repro.core.area import AreaAnalyzer, AreaReport
from repro.core.energy import EnergyAnalyzer, EnergyReport
from repro.core.latency import LatencyAnalyzer, LatencyReport
from repro.core.link_budget import (
    LinkBudgetAnalyzer,
    LinkBudgetReport,
    required_laser_power_mw,
)
from repro.core.memory_analyzer import MemoryReport
from repro.core.report import component_label
from repro.core.snr import SNRReport
from repro.dataflow.gemm import GEMMWorkload
from repro.dataflow.mapping import Mapping as GEMMMapping
from repro.memory.hierarchy import MemoryHierarchy, MemoryLevel
from repro.netlist.dag import CircuitDAG
from repro.onn.layers import Conv2d, MultiHeadAttention
from repro.onn.quantize import receiver_limited_bits
from repro.variation.accuracy import (
    AccuracyReport,
    aggregate_trials,
    classification_agreement,
    noisy_forward,
    output_rmse,
    reference_forward,
)
from repro.variation.montecarlo import AccuracyRequest, LinkOperatingPoint
from repro.variation.sampler import trial_rng


def im2col_loop(conv: Conv2d, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
    """The per-window im2col: same contract as ``Conv2d._im2col``."""
    channels, height, width = x.shape
    out_h, out_w = conv.output_hw(height, width)
    padded = np.pad(
        x, ((0, 0), (conv.padding, conv.padding), (conv.padding, conv.padding))
    )
    k = conv.kernel_size
    cols = np.empty((out_h * out_w, channels * k * k))
    idx = 0
    for i in range(out_h):
        for j in range(out_w):
            patch = padded[
                :,
                i * conv.stride : i * conv.stride + k,
                j * conv.stride : j * conv.stride + k,
            ]
            cols[idx] = patch.ravel()
            idx += 1
    return cols, (out_h, out_w)


def loop_monte_carlo(
    request: AccuracyRequest,
    input_bits: int = 8,
    weight_bits: int = 8,
    output_bits: int = 8,
    link: Optional[LinkOperatingPoint] = None,
    nominal_snr: Optional[SNRReport] = None,
) -> AccuracyReport:
    """The Monte Carlo study as a serial loop of single-trial forwards."""
    if nominal_snr is not None:
        nominal_bits = nominal_snr.effective_bits
    elif link is not None:
        nominal_bits = link.effective_bits(request.noise.static_loss_db())
    else:
        nominal_bits = math.inf
    if request.reference == "float":
        reference = np.asarray(request.model.forward(request.inputs), dtype=float)
    else:
        reference = reference_forward(
            request.model,
            request.inputs,
            input_bits=input_bits,
            weight_bits=weight_bits,
            output_bits=output_bits,
            effective_bits=nominal_bits,
        )
    accuracies = np.empty(request.trials)
    rmses = np.empty(request.trials)
    effective = np.empty(request.trials)
    for trial in range(request.trials):
        rng = trial_rng(request.seed, trial)
        extra_loss_db = request.noise.sample_loss_db(rng)
        effective_bits = (
            link.effective_bits(extra_loss_db) if link is not None else math.inf
        )
        outputs = noisy_forward(
            request.model,
            request.inputs,
            request.noise,
            rng,
            input_bits=input_bits,
            weight_bits=weight_bits,
            output_bits=output_bits,
            effective_bits=effective_bits,
        )
        accuracies[trial] = classification_agreement(outputs, reference)
        rmses[trial] = output_rmse(outputs, reference)
        effective[trial] = effective_bits
    return aggregate_trials(
        accuracies,
        rmses,
        effective,
        seed=request.seed,
        effective_bits_nominal=float(nominal_bits),
    )


def group_trials_by_bits_loop(
    effective: Sequence[Optional[float]],
    input_bits: int,
    weight_bits: int,
    output_bits: int,
) -> Dict[Tuple[int, int, int], List[int]]:
    """Trial indices grouped by their resolved bits, resolved trial by trial."""
    groups: Dict[Tuple[int, int, int], List[int]] = {}
    for idx, eff in enumerate(effective):
        resolved = (
            receiver_limited_bits(input_bits, eff),
            receiver_limited_bits(weight_bits, eff),
            receiver_limited_bits(output_bits, eff),
        )
        groups.setdefault(resolved, []).append(idx)
    return groups


def quantize_uniform_reference(
    values: np.ndarray, bits: int, symmetric: bool = True
) -> np.ndarray:
    """``quantize_uniform`` as three full-size temporaries per step."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.copy()
    if symmetric:
        peak = float(np.max(np.abs(values)))
        if peak == 0.0:
            return np.zeros_like(values)
        levels = max(2 ** (bits - 1) - 1, 1)
        scale = peak / levels
        return np.round(values / scale) * scale
    low = float(values.min())
    high = float(values.max())
    if high == low:
        return np.full_like(values, low)
    levels = 2**bits - 1
    scale = (high - low) / levels
    return np.round((values - low) / scale) * scale + low


def quantize_with_scale_reference(values: np.ndarray, bits: int) -> Tuple[np.ndarray, float]:
    """``quantize_with_scale`` with an ``np.abs`` peak and out-of-place rounding."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.astype(int), 1.0
    peak = float(np.max(np.abs(values)))
    levels = max(2 ** (bits - 1) - 1, 1)
    if peak == 0.0:
        return np.zeros(values.shape, dtype=int), 1.0
    scale = peak / levels
    return np.clip(np.round(values / scale), -levels - 1, levels).astype(int), scale


def gelu_reference(x: np.ndarray) -> np.ndarray:
    """The tanh-approximation GELU with the cube written as ``x**3``."""
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def gelu_expression_reference(x: np.ndarray) -> np.ndarray:
    """The tanh GELU as one whole-array expression, cube as ``x * x * x``."""
    return 0.5 * x * (
        1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * (x * x * x)))
    )


def softmax_reference(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with a fresh array per step."""
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def layer_norm_reference(
    x: np.ndarray, scale: np.ndarray, shift: np.ndarray, eps: float
) -> np.ndarray:
    """Layer normalization over the last axis as one expression."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * scale + shift


def attention_batch_reference(attn: MultiHeadAttention, x: np.ndarray) -> np.ndarray:
    """``MultiHeadAttention.forward_batch`` on a ``(trials, tokens, embed)`` stack."""
    trials, tokens = x.shape[0], x.shape[1]
    shape = (trials, tokens, attn.num_heads, attn.head_dim)
    qh, kh, vh = (
        proj.forward_batch(x).reshape(shape) for proj in (attn.w_q, attn.w_k, attn.w_v)
    )
    scores = np.einsum("tqhd,tkhd->thqk", qh, kh, optimize=True) / math.sqrt(
        attn.head_dim
    )
    context = np.einsum("thqk,tkhd->tqhd", softmax_reference(scores), vh, optimize=True)
    return attn.w_o.forward_batch(context.reshape(trials, tokens, attn.embed_dim))


def zero_fraction_reference(gemm: GEMMWorkload) -> float:
    """``GEMMWorkload`` sparsity as the mean of a boolean mask."""
    if gemm.pruning_mask is not None:
        return float(1.0 - gemm.pruning_mask.mean())
    if gemm.weight_values is not None:
        return float(np.mean(gemm.weight_values == 0.0))
    return 0.0


_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Pow: operator.pow,
    ast.Mod: operator.mod,
}
_UNARYOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_FUNCS = {
    "min": min,
    "max": max,
    "ceil": math.ceil,
    "floor": math.floor,
    "abs": abs,
    "log2": math.log2,
    "sqrt": math.sqrt,
}


def eval_tree(expression: str, params: Mapping[str, float]) -> float:
    """Evaluate a (valid) scaling expression by walking its AST.

    The same missing-parameter ``KeyError`` message as ``ScalingRule.evaluate``.
    """

    def walk(node: ast.AST) -> float:
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            try:
                return float(params[node.id])
            except KeyError:
                known = ", ".join(sorted(params))
                raise KeyError(
                    f"scaling rule {expression!r} references unknown parameter "
                    f"{node.id!r}; available: {known}"
                ) from None
        if isinstance(node, ast.BinOp):
            return _BINOPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp):
            return _UNARYOPS[type(node.op)](walk(node.operand))
        if isinstance(node, ast.Call):
            func = _FUNCS[node.func.id]
            return float(func(*(walk(arg) for arg in node.args)))
        raise AssertionError(f"unvalidated node {node!r}")

    return walk(ast.parse(expression, mode="eval").body)


def energy_report_reference(
    analyzer: EnergyAnalyzer,
    arch: Architecture,
    mapping: GEMMMapping,
    link_budget: Optional[LinkBudgetReport] = None,
    memory_energy_pj: float = 0.0,
    memory_static_power_mw: float = 0.0,
    data_aware: Optional[bool] = None,
) -> EnergyReport:
    """``EnergyAnalyzer.analyze`` as a per-instance loop re-evaluating every rule."""
    data_aware = analyzer.config.data_aware if data_aware is None else data_aware
    params = dict(arch.params)
    params.update(mapping.params_overlay())
    total_time_ns = mapping.total_time_ns
    compute_time_ns = mapping.compute_time_ns
    active_cycles = mapping.compute_cycles
    cycle_ns = 1.0 / mapping.frequency_ghz
    workload = mapping.workload
    sparsity = workload.sparsity if data_aware else 0.0

    breakdown: Dict[str, float] = {}

    def add(label: str, energy_pj: float) -> None:
        if energy_pj <= 0:
            return
        breakdown[label] = breakdown.get(label, 0.0) + energy_pj

    def device_power(inst, device) -> float:
        if not (data_aware and inst.data_dependent):
            return device.nominal_power_mw()
        return analyzer._data_power_mw(device, inst, mapping)

    if link_budget is not None:
        add("Laser", link_budget.total_laser_electrical_power_mw * compute_time_ns)

    for inst in arch.instances:
        if not inst.count_in_energy:
            continue
        if inst.role is Role.LIGHT_SOURCE and link_budget is not None:
            continue
        if inst.activity is Activity.PASSIVE:
            continue
        count = inst.instance_count(params)
        if count == 0:
            continue
        device = arch.library.get(inst.device)
        label = component_label(inst)
        duty = inst.duty_factor(params)

        if inst.activity is Activity.STATIC:
            gating = 1.0
            if data_aware and inst.operand == "B":
                gating = max(0.0, 1.0 - sparsity)
            power = device_power(inst, device)
            add(label, count * power * duty * gating * compute_time_ns)

        elif inst.activity is Activity.PER_CYCLE:
            activity_scale = duty
            if analyzer.config.include_idle_gating:
                activity_scale *= mapping.utilization
            if data_aware and inst.role is Role.WEIGHT_ENCODER:
                activity_scale *= max(0.0, 1.0 - sparsity)
            power = device_power(inst, device)
            energy_per_cycle = power * cycle_ns + device.energy_per_op_pj
            add(label, count * energy_per_cycle * active_cycles * activity_scale)

        elif inst.activity is Activity.PER_RECONFIG:
            events = mapping.reconfig_events * mapping.forwards
            if events == 0:
                continue
            write_energy = float(
                device.spec.extra.get("write_energy_pj", device.energy_per_op_pj)
            )
            scale = 1.0
            if data_aware:
                scale = max(0.0, 1.0 - sparsity)
            add(label, count * events * write_energy * scale)

    add("DM", memory_energy_pj + memory_static_power_mw * compute_time_ns)
    return EnergyReport(
        breakdown_pj=breakdown, total_time_ns=total_time_ns, data_aware=data_aware
    )


def area_report_reference(
    analyzer: AreaAnalyzer,
    arch: Architecture,
    memory_report: Optional[MemoryReport] = None,
    layout_aware: Optional[bool] = None,
) -> AreaReport:
    """``AreaAnalyzer.analyze`` as a per-instance loop re-evaluating every count."""
    layout_aware = (
        analyzer.config.use_layout_aware_area if layout_aware is None else layout_aware
    )
    node_area, node_naive = analyzer.node_areas(arch, layout_aware)
    params = arch.params
    breakdown: Dict[str, float] = {}
    for inst in arch.instances:
        if not inst.count_in_area:
            continue
        count = inst.instance_count(params)
        if count == 0:
            continue
        if inst.is_composite:
            unit_area = node_area
        else:
            unit_area = arch.library.get(inst.device).area_um2
        label = component_label(inst)
        breakdown[label] = breakdown.get(label, 0.0) + unit_area * count
    memory_area = 0.0
    if memory_report is not None and analyzer.config.include_memory:
        memory_area = memory_report.onchip_area_mm2
    return AreaReport(
        breakdown_um2=breakdown,
        node_area_um2=node_area,
        node_area_naive_um2=node_naive,
        memory_area_mm2=memory_area,
        layout_aware=layout_aware,
    )


def link_budget_reference(analyzer: LinkBudgetAnalyzer, arch: Architecture) -> LinkBudgetReport:
    """A link budget with no memo and no plan: the DAG's longest path.

    Loss multiplicities and source counts are re-evaluated from the rules;
    the optics scan and Eq. (1) are the analyzer's own.
    """
    params = arch.params
    by_name = {inst.name: inst for inst in arch.instances}
    multipliers = {
        name: by_name[name].loss_multiplicity(params)
        for name in arch.link_netlist.instances
        if name in by_name
    }
    critical_path = CircuitDAG(
        arch.link_netlist, arch.library, loss_multipliers=multipliers
    ).critical_path()
    sensitivity, extinction, wpe = analyzer.optics_profile(arch)
    sources = sum(
        inst.instance_count(params)
        for inst in arch.instances
        if inst.role is Role.LIGHT_SOURCE
    )
    channels = max(sources, arch.config.num_wavelengths)
    input_bits = arch.config.input_bits
    optical_mw, electrical_mw = required_laser_power_mw(
        critical_path.insertion_loss_db, sensitivity, input_bits, extinction, wpe
    )
    return LinkBudgetReport(
        critical_path=critical_path,
        insertion_loss_db=critical_path.insertion_loss_db,
        pd_sensitivity_dbm=sensitivity,
        extinction_ratio_db=extinction,
        input_bits=input_bits,
        wall_plug_efficiency=wpe,
        laser_optical_power_mw=optical_mw,
        laser_electrical_power_mw=electrical_mw,
        num_sources=channels,
        total_laser_electrical_power_mw=electrical_mw * channels,
    )


def latency_report_reference(
    analyzer: LatencyAnalyzer,
    mapping: GEMMMapping,
    hierarchy: Optional[MemoryHierarchy] = None,
) -> LatencyReport:
    """``LatencyAnalyzer.analyze`` reading the GLB bandwidth at every term."""

    def streaming_cycles(num_bytes: float) -> int:
        if num_bytes <= 0 or hierarchy is None:
            return 0
        glb = hierarchy.level(MemoryLevel.GLB)
        bandwidth_bytes_per_ns = glb.bandwidth_bits_per_ns / 8.0
        if bandwidth_bytes_per_ns <= 0:
            return 0
        time_ns = num_bytes / bandwidth_bytes_per_ns
        return int(math.ceil(time_ns * mapping.frequency_ghz))

    workload = mapping.workload
    load_cycles = streaming_cycles(workload.input_bytes + workload.weight_bytes)
    writeout_cycles = streaming_cycles(workload.output_bytes)
    if analyzer.overlap_memory_with_compute:
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
