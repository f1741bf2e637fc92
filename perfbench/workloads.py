"""The four benchmark workloads, each iteration one cold user request.

Every iteration builds its inputs from the seed, evaluates them against a
fresh :class:`~repro.core.cache.EvaluationCache` with no result store, and
returns the simulated outputs for checking.  Seed 0 (:data:`DEFAULT_SEED`)
reproduces the inputs of the catalog scenario each workload mirrors; another
seed shifts every input seed of that scenario by the same offset.

- ``lt_bert``: Fig. 8, BERT-Base (224x224, 4 encoder blocks) converted to
  Lightening-Transformer, extracted and simulated with memory modelling on;
- ``tempo_dse``: the 192-point TeMPO grid of ``dse_large_grid``, serial, plus
  its Pareto front;
- ``mc_robustness``: ``variation_robustness`` at 256 trials x 5 noise
  magnitudes, serial, in the bit-exact reference mode;
- ``tempo_dse_procs``: the ``tempo_dse`` grid on the process backend with
  two workers.

Simulated energy, latency and area are outputs to check, not measurements:
they must not move when only the simulator's host time does.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.arch.templates import build_lightening_transformer, build_tempo
from repro.core.cache import CacheStats, EvaluationCache
from repro.core.engine import EvaluationEngine
from repro.core.report import scale_breakdown
from repro.explore import DesignSpace, DesignSpaceExplorer
from repro.onn import ONNConversionConfig, convert_to_onn, extract_workloads
from repro.onn.models import build_bert_base_image
from repro.onn.workload import total_macs
from repro.scenarios import REGISTRY
from repro.scenarios.catalog import FIG8_FULL_LAYERS
from repro.scenarios.spec import ScenarioResult
from repro.scenarios.workloads import (
    large_grid_workloads,
    mc_classifier_inputs,
    mc_classifier_model,
)
from repro.variation import AccuracyRequest, standard_noise

from layertrace import NO_TRACE

DEFAULT_SEED = 0
#: The input seeds of the mirrored scenarios at the default seed: the BERT
#: builder's default weight seed, the Fig. 8 image seed and the default seed
#: of ``large_grid_workloads``.  Monte Carlo seeds come from the scenario spec.
FIG8_MODEL_SEED = 13
FIG8_IMAGE_SEED = 0
LARGE_GRID_SEED = 11

#: Worker count of ``tempo_dse_procs``; fixed so the workload is the same on
#: every host (it equals ``nproc`` on the two-core machine the bounds came from).
PROCESS_JOBS = 2


class ReferenceMismatch(AssertionError):
    """The program's output differs from a committed table or registry result."""


@dataclass
class Outcome:
    """What one iteration produced, for the checks and the traced metrics."""

    values: Dict[str, Any]
    work: float
    cache_stats: Dict[str, CacheStats]
    counts: Dict[str, float] = field(default_factory=dict)
    #: Engine-pass timings measured inside worker processes (process backend).
    pass_timings: Dict[str, Any] = field(default_factory=dict)


def digest(values: Dict[str, Any]) -> str:
    """SHA-1 of the canonical JSON of the simulated outputs."""
    return hashlib.sha1(json.dumps(values, sort_keys=True).encode()).hexdigest()


def corrupt(values: Any) -> bool:
    """Nudge the first float in ``values`` in place (the smoke test's fault)."""
    items = values.items() if isinstance(values, dict) else enumerate(values)
    for key, item in items:
        if isinstance(item, float):
            values[key] = item * (1.0 + 1e-9) + 1e-12
            return True
        if isinstance(item, (dict, list)) and corrupt(item):
            return True
    return False


def check_committed_table(result: ScenarioResult, results_dir: Path) -> None:
    """The registry result's table must equal the committed file byte for byte."""
    committed = (results_dir / f"{result.name}.txt").read_bytes()
    if (result.table + "\n").encode() != committed:
        raise ReferenceMismatch(f"{result.name} table differs from the committed table")


class Workload:
    """One benchmark workload: ``run`` is a request, the rest are its checks."""

    name = ""
    #: What ``work_per_s`` counts for this workload.
    work_unit = ""
    #: The catalog scenario this workload mirrors.
    scenario = ""
    #: Processes a request computes on; picks the benchmark's calibration kernel.
    processes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.offset = seed - DEFAULT_SEED

    def run(self, trace) -> Outcome:
        raise NotImplementedError

    def verify(self, values: Dict[str, Any]) -> None:
        """The mirrored scenario's shape checks; raises ``AssertionError``."""
        REGISTRY.verify(self.scenario, ScenarioResult(table="", metrics=values))

    def reference(self, results_dir: Path) -> Optional[Dict[str, Any]]:
        """Values every iteration must equal, or ``None`` when only self-consistency applies."""
        return None

    def static_counts(self) -> Dict[str, float]:
        """Per-layer counts that do not change between iterations."""
        return {}


class LtBert(Workload):
    name = "lt_bert"
    work_unit = "MAC"
    scenario = "fig8_lt_validation"
    num_layers = 4

    def run(self, trace) -> Outcome:
        spec = REGISTRY.get(self.scenario).spec
        with trace.span("onn.build_s"):
            model = build_bert_base_image(
                image_size=224,
                num_layers=self.num_layers,
                rng=np.random.default_rng(FIG8_MODEL_SEED + self.offset),
            )
        with trace.span("onn.convert_s"):
            convert_to_onn(model, ONNConversionConfig(default_ptc="lightening_transformer"))
        image = np.random.default_rng(FIG8_IMAGE_SEED + self.offset).normal(size=(3, 224, 224))
        with trace.span("onn.extract_s"):
            workloads = extract_workloads(model, image)
        arch = build_lightening_transformer()
        cache = EvaluationCache()
        with trace.span("engine.run_s"):
            result = EvaluationEngine(arch, spec.sim_config(), cache=cache).run(workloads)
        # The Fig. 8 power figure: per-block energy extrapolated to 12 blocks.
        scale = FIG8_FULL_LAYERS / self.num_layers
        energy = scale_breakdown(result.energy_breakdown_pj, scale)
        time_ns = result.total_time_ns * scale
        values = {
            "area_mm2": {k: float(v) for k, v in result.area_breakdown_mm2.items()},
            "power_w": {k: float(v / time_ns / 1e3) for k, v in energy.items()},
            "energy_pj": {k: float(v) for k, v in result.energy_breakdown_pj.items()},
            "time_ns": float(result.total_time_ns),
        }
        return Outcome(
            values=values,
            work=float(total_macs(workloads)),
            cache_stats=cache.stats,
            counts={"onn.gemms": len(workloads)},
        )

    def reference(self, results_dir: Path) -> Optional[Dict[str, Any]]:
        if self.offset:
            return None
        result = REGISTRY.run(self.scenario, params={"num_layers": self.num_layers})
        check_committed_table(result, results_dir)
        return {key: result.metrics[key] for key in ("area_mm2", "power_w")}


class TempoDse(Workload):
    name = "tempo_dse"
    work_unit = "design point"
    scenario = "dse_large_grid"
    backend = "serial"
    jobs: Optional[int] = None
    span_name = "explore.explore_s"

    def run(self, trace) -> Outcome:
        spec = REGISTRY.get(self.scenario).spec
        workloads = large_grid_workloads(LARGE_GRID_SEED + self.offset)
        explorer = DesignSpaceExplorer(
            build_tempo, workloads, base_config=spec.arch_config(), cache=EvaluationCache()
        )
        with trace.span(self.span_name):
            result = explorer.explore(
                DesignSpace.from_axes(spec.sweep),
                strategy=spec.strategy,
                backend=self.backend,
                max_workers=self.jobs,
            )
        with trace.span("explore.pareto_s"):
            front = result.pareto_front(spec.objectives)
        return Outcome(
            values=points_values(result.points, front),
            work=float(len(result.points)),
            # Merged with the workers' caches under the process backend.
            cache_stats=result.cache_stats,
            counts={"explore.points": len(result.points)},
            pass_timings=result.pass_timings if self.backend != "serial" else {},
        )

    def reference(self, results_dir: Path) -> Optional[Dict[str, Any]]:
        if self.offset:
            return None
        result = REGISTRY.run(self.scenario, params={"backend": "serial", "jobs": 0})
        check_committed_table(result, results_dir)
        return points_values(result.extras["dse_result"].points, result.extras["front"])


class TempoDseProcs(TempoDse):
    name = "tempo_dse_procs"
    backend = "processes"
    jobs = processes = PROCESS_JOBS
    span_name = "exec.explore_s"

    def serial(self) -> TempoDse:
        """The same grid and seed on the serial backend."""
        return TempoDse(self.seed)

    def reference(self, results_dir: Path) -> Optional[Dict[str, Any]]:
        # At every seed the process backend must match the serial explorer,
        # which at the default seed must match the committed table.
        serial = self.serial()
        expected = serial.reference(results_dir)
        values = serial.run(NO_TRACE).values
        if expected is not None and values != expected:
            raise ReferenceMismatch("serial tempo_dse differs from dse_large_grid")
        return values

    def static_counts(self) -> Dict[str, float]:
        workloads = tuple(large_grid_workloads(LARGE_GRID_SEED + self.offset))
        return {"exec.context_bytes": len(pickle.dumps(workloads, pickle.HIGHEST_PROTOCOL))}


def points_values(points, front) -> Dict[str, Any]:
    """The checked outputs of a DSE: every design point's record and the front."""
    return {
        "points": [
            {
                "params": dict(p.parameters),
                "energy_uj": p.energy_uj,
                "latency_ns": p.latency_ns,
                "area_mm2": p.area_mm2,
                "power_w": p.power_w,
                "laser_power_mw": p.laser_power_mw,
                "energy_per_mac_pj": p.energy_per_mac_pj,
            }
            for p in points
        ],
        "front_params": [dict(p.parameters) for p in front],
    }


class McRobustness(Workload):
    name = "mc_robustness"
    work_unit = "MC trial"
    scenario = "variation_robustness"
    magnitudes = (0.0, 0.25, 0.5, 1.0, 2.0)
    trials = 256

    def run(self, trace, trials: Optional[int] = None) -> Outcome:
        spec = REGISTRY.get(self.scenario).spec
        params = spec.params
        trials = trials or self.trials
        arch = build_tempo()
        base = standard_noise()
        cache = EvaluationCache()
        series = {}
        for magnitude in self.magnitudes:
            # As in the scenario, every magnitude builds its own request.
            with trace.span("onn.build_s"):
                model = mc_classifier_model(seed=params["model_seed"] + self.offset)
            inputs = mc_classifier_inputs(
                samples=params["samples"], seed=params["input_seed"] + self.offset
            )
            request = AccuracyRequest(
                model=model,
                inputs=inputs,
                noise=base.scaled(magnitude),
                trials=trials,
                seed=params["seed"] + self.offset,
                reference="quantized",
                backend="serial",
                jobs=None,
            )
            with trace.span("engine.run_s"):
                report = EvaluationEngine(arch, spec.sim_config(), cache=cache).run_accuracy(
                    request
                )
            series[str(magnitude)] = {
                "accuracy_mean": report.accuracy_mean,
                "accuracy_std": report.accuracy_std,
                "accuracy_min": report.accuracy_min,
                "error_rate": report.error_rate,
                "rmse_mean": report.rmse_mean,
                "effective_bits_nominal": report.effective_bits_nominal,
                "effective_bits_mean": report.effective_bits_mean,
            }
        return Outcome(
            values={"series": series},
            work=float(trials * len(self.magnitudes)),
            cache_stats=cache.stats,
            counts={"mc.trials": trials * len(self.magnitudes)},
        )

    def reference(self, results_dir: Path) -> Optional[Dict[str, Any]]:
        if self.offset:
            return None
        # The committed table is taken at the scenario's own trial count; this
        # path must reproduce the registry there before it runs at 256 trials.
        trials = REGISTRY.get(self.scenario).spec.params["trials"]
        result = REGISTRY.run(
            self.scenario, params={"trials": trials, "backend": "serial", "jobs": 0}
        )
        check_committed_table(result, results_dir)
        if self.run(NO_TRACE, trials=trials).values["series"] != result.metrics["series"]:
            raise ReferenceMismatch("mc_robustness differs from variation_robustness")
        return None


WORKLOADS = {cls.name: cls for cls in (LtBert, TempoDse, McRobustness, TempoDseProcs)}
