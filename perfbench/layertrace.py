"""Per-layer tracing for the benchmark, recorded from the benchmark's own files.

A traced iteration records two kinds of events:

- **layer spans** -- wall-clock around each call the benchmark makes into a
  layer's public function (``onn.build_s``, ``engine.run_s``, ...).  These are
  top level and never overlap, so the iteration wall-clock minus their sum is
  the ``unattributed_s`` no layer call covers;
- **nested events** from the program's public hooks: engine passes through
  ``observe_passes`` and Monte Carlo stages through ``observe_stages``.  They
  happen inside a layer span and are reported beside it, never added to it.

An untraced iteration uses :data:`NO_TRACE`, whose spans do nothing and which
subscribes to no hook, so the program runs its unobserved fast paths.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator

#: The engine passes and Monte Carlo stages reported by name; any other one is
#: summed under ``other``, so the metric names stay fixed.
ENGINE_PASSES = (
    "route", "map", "memory", "link_budget", "area", "layer_analysis", "aggregate",
    "receiver_precision", "mc_accuracy",
)
MC_STAGES = ("rng", "forward", "quantize", "metrics", "dispatch")


class NoTrace:
    """The untraced recorder: every span is a shared no-op context."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL


NO_TRACE = NoTrace()


class Recorder:
    """One traced iteration: layer spans plus hook events, in seconds."""

    def __init__(self) -> None:
        self.spans: Dict[str, float] = {}
        self.nested: Dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] = self.spans.get(name, 0.0) + time.perf_counter() - start

    def _add(self, name: str, value: float) -> None:
        self.nested[name] = self.nested.get(name, 0.0) + value

    def add_pass(self, stage: str, seconds: float, count: int = 1) -> None:
        """Record engine-pass time, observed here or shipped from a worker."""
        stage = stage if stage in ENGINE_PASSES else "other"
        self._add(f"engine.pass.{stage}_s", seconds)
        self._add(f"engine.pass.{stage}_n", count)

    def _on_pass(self, stage: str, engine: object, elapsed_s: float) -> None:
        self.add_pass(stage, elapsed_s)

    def _on_stage(self, stage: str, seconds: float) -> None:
        self._add(f"mc.stage.{stage if stage in MC_STAGES else 'other'}_s", seconds)

    @contextlib.contextmanager
    def observing(self) -> Iterator["Recorder"]:
        """Subscribe to the engine-pass and Monte Carlo-stage hooks."""
        # Imported here: run.py loads this module before it has checked that
        # the program's source is present.
        from repro.core.engine import observe_passes
        from repro.variation.stages import observe_stages

        with observe_passes(self._on_pass), observe_stages(self._on_stage):
            yield self
