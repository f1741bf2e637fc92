"""End-to-end workload extraction: model + input -> per-layer GEMM workloads.

The extraction runs a real numpy forward pass, so every
:class:`~repro.dataflow.gemm.GEMMWorkload` carries the actual operand values that
data-aware energy analysis needs, plus the layer's PTC assignment for heterogeneous
mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.dataflow.gemm import GEMMWorkload
from repro.onn.convert import ptc_assignment_of
from repro.onn.layers import Module


@dataclass
class LayerWorkload:
    """One GEMM workload tagged with its source layer and PTC assignment."""

    gemm: GEMMWorkload
    layer_name: str
    layer_type: str
    ptc_type: Optional[str] = None

    @property
    def num_macs(self) -> int:
        return self.gemm.num_macs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LayerWorkload({self.layer_name!r}, type={self.layer_type}, "
            f"ptc={self.ptc_type}, macs={self.num_macs})"
        )


def _assign_ptc(gemm_name: str, assignment: Dict[str, str]) -> Optional[str]:
    """Longest-prefix match of a GEMM name against converted layer names."""
    best: Optional[str] = None
    best_len = -1
    for layer_name, ptc in assignment.items():
        if gemm_name == layer_name or gemm_name.startswith(layer_name + "."):
            if len(layer_name) > best_len:
                best, best_len = ptc, len(layer_name)
    if best is None and gemm_name in assignment:
        best = assignment[gemm_name]
    return best


def extract_workloads(model: Module, input_array: np.ndarray) -> List[LayerWorkload]:
    """Run ``model`` on ``input_array`` and return all extracted GEMM workloads.

    Records hold read-only views of the model's weights and activations; the
    input is copied once so no record aliases memory the caller still owns.
    """
    input_array = np.array(input_array, dtype=float)
    gemms, _ = model.extract_gemms(input_array)
    assignment = ptc_assignment_of(model)
    workloads: List[LayerWorkload] = []
    for gemm in gemms:
        ptc = _assign_ptc(gemm.name, assignment)
        # Attention score/context matmuls belong to the attention block, not to any
        # single projection layer; fall back to the enclosing attention module.
        if ptc is None and gemm.layer_type == "attention":
            prefix = gemm.name.split(".qk_head")[0].split(".av_head")[0]
            ptc = _assign_ptc(prefix + ".q_proj", assignment)
        workloads.append(
            LayerWorkload(
                gemm=gemm,
                layer_name=gemm.name,
                layer_type=gemm.layer_type,
                ptc_type=ptc,
            )
        )
    return workloads


def total_macs(workloads: List[LayerWorkload]) -> int:
    """Total multiply-accumulates across a workload list."""
    return sum(w.num_macs for w in workloads)


def max_layer_bytes(workloads: List[LayerWorkload]) -> float:
    """Largest single-layer operand footprint, used to size the GLB."""
    if not workloads:
        return 0.0
    return max(w.gemm.total_bytes for w in workloads)
