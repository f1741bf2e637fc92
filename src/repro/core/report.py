"""Report helpers: component labelling, breakdown merging, text rendering.

This module is the single text-formatting path shared by the scenario CLI
(:mod:`repro.cli`) and the batch runner (:mod:`repro.scenarios.runner`) -- they
render tables via :func:`repro.utils.format.format_table` (re-exported here),
and the CLI persists them with :func:`save_result_text`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Mapping, Union

from repro.arch.instance import ArchInstance
from repro.utils.format import format_breakdown, format_table

__all__ = [
    "COMPONENT_LABELS",
    "component_label",
    "merge_breakdowns",
    "scale_breakdown",
    "render_breakdown",
    "render_comparison",
    "format_breakdown",
    "format_table",
    "save_result_text",
]

#: Device-library name -> human-readable component label used in breakdowns.
#: Matches the component legends of the paper's Figs. 7-11.
COMPONENT_LABELS: Dict[str, str] = {
    "dac": "DAC",
    "adc": "ADC",
    "tia": "TIA",
    "integrator": "Integrator",
    "digital_control": "Digital",
    "mzm": "MZM",
    "mrm": "MZM",
    "mzi": "PS",
    "phase_shifter": "PS",
    "ps_bias": "PS",
    "mrr": "MRR",
    "pcm": "PCM",
    "pd": "PD",
    "laser": "Laser",
    "microcomb": "Laser",
    "coupler": "Coupling",
    "y_branch": "Y Branch",
    "mmi": "MMI",
    "wdm_mux": "MMI",
    "crossing": "Crossing",
    "directional_coupler": "Node",
}


def component_label(instance: ArchInstance) -> str:
    """Map an architecture instance to its breakdown component label."""
    if instance.is_composite:
        return "Node"
    return COMPONENT_LABELS.get(instance.device, instance.device)


def merge_breakdowns(breakdowns: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Sum a sequence of component breakdowns into one."""
    merged: Dict[str, float] = {}
    for breakdown in breakdowns:
        for key, value in breakdown.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


def scale_breakdown(breakdown: Mapping[str, float], factor: float) -> Dict[str, float]:
    """Multiply every component of a breakdown by ``factor``."""
    return {key: value * factor for key, value in breakdown.items()}


def render_breakdown(breakdown: Mapping[str, float], unit: str = "") -> str:
    """Human-readable table of a breakdown, sorted by descending value."""
    return format_breakdown(dict(breakdown), unit=unit)


def render_comparison(
    label_a: str,
    breakdown_a: Mapping[str, float],
    label_b: str,
    breakdown_b: Mapping[str, float],
) -> str:
    """Side-by-side comparison table of two breakdowns (e.g. SimPhony vs. reference)."""
    keys = sorted(set(breakdown_a) | set(breakdown_b))
    rows = []
    for key in keys:
        a = breakdown_a.get(key, 0.0)
        b = breakdown_b.get(key, 0.0)
        ratio = a / b if b else float("inf") if a else 1.0
        rows.append((key, a, b, ratio))
    rows.append(
        (
            "TOTAL",
            sum(breakdown_a.values()),
            sum(breakdown_b.values()),
            (sum(breakdown_a.values()) / sum(breakdown_b.values()))
            if sum(breakdown_b.values())
            else float("inf"),
        )
    )
    return format_table(["component", label_a, label_b, "ratio"], rows)


def save_result_text(path: Union[str, Path], text: str) -> Path:
    """Persist a rendered result table to ``path``.

    The canonical persistence helper for figure/table reproductions: writes
    ``text`` plus a trailing newline to ``path`` (creating parent directories),
    the layout of every committed ``benchmarks/results/<name>.txt``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return path
