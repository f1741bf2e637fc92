"""Strategy-driven design-space exploration over PTC architecture parameters.

The paper positions SimPhony as the evaluation engine for architecture exploration
and names automated design-space exploration as a future extension; this module
provides that loop on top of the staged :class:`~repro.core.engine.EvaluationEngine`:

1. :class:`DesignSpace` declares the swept `ArchitectureConfig` fields and their
   candidate values;
2. :class:`DesignSpaceExplorer` resolves a template architecture at every proposed
   point (rebinding the symbolic structure instead of rebuilding it where the
   engine's cache allows), simulates the workload set through the shared memoized
   pass pipeline, and records energy / latency / area / laser-power metrics as
   :class:`DesignPoint` records;
3. search strategies (:mod:`repro.explore.search`) decide which points to visit:
   exhaustive :class:`~repro.explore.search.GridSearch`, sampled
   :class:`~repro.explore.search.RandomSearch` or feedback-driven
   :class:`~repro.explore.search.CoordinateDescent`; *how* each strategy batch
   runs is delegated to a pluggable execution backend (:mod:`repro.exec`):
   inline, or GIL-free forked or TCP-connected workers -- all with
   deterministic result ordering, so every backend records identical values;
4. :func:`pareto_front` extracts the non-dominated points over any subset of the
   (minimize-all) objectives with an incremental sweep instead of the seed's
   all-pairs scan.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import operator
import pickle
import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.arch.architecture import Architecture, ArchitectureConfig
from repro.core.cache import (
    CacheStats,
    EvaluationCache,
    canonical_value,
    config_fingerprint,
    digest,
    fingerprint,
    workload_fingerprint,
)
from repro.core.config import SimulationConfig
from repro.core.engine import (
    EvaluationEngine,
    builder_key,
    observe_passes,
    resolve_architecture,
    structure_token,
)
from repro.dataflow.gemm import GEMMWorkload
from repro.exec import (
    ExecutionBackend,
    PassTiming,
    WorkerTelemetry,
    applied_env_snapshot,
    cache_stats_delta,
    cache_stats_snapshot,
    merge_cache_stats,
    repro_env_snapshot,
    resolve_backend,
    scoped_pass_observer,
)
from repro.explore.search import SearchStrategy, resolve_strategy
from repro.onn.workload import LayerWorkload
from repro.variation.montecarlo import AccuracyRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.shm import ShmHandle

ArchBuilder = Callable[..., Architecture]
WorkloadSet = Sequence[object]
ProgressCallback = Callable[["DesignPoint", int, int], None]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design: its configuration values and the measured objectives.

    ``accuracy`` / ``error_rate`` are populated only when the explorer carries
    an :class:`~repro.variation.montecarlo.AccuracyRequest`; they default to
    ``None`` (not NaN -- ``None`` keeps record equality exact and makes a
    missing evaluation fail loudly instead of corrupting a Pareto sweep).
    ``error_rate`` is the minimize-me complement of the mean Monte Carlo
    accuracy, so it composes with the other (minimized) objectives.
    """

    parameters: Mapping[str, object]
    energy_uj: float
    latency_ns: float
    area_mm2: float
    power_w: float
    laser_power_mw: float
    energy_per_mac_pj: float
    accuracy: Optional[float] = None
    error_rate: Optional[float] = None

    def objective(self, name: str) -> float:
        """Look up an objective by name (all objectives are minimized)."""
        try:
            value = getattr(self, name)
        except AttributeError:
            raise KeyError(f"unknown objective {name!r}") from None
        if value is None:
            raise ValueError(
                f"objective {name!r} was not evaluated for this design point; "
                "pass accuracy=AccuracyRequest(...) to the explorer to enable "
                "variation-aware accuracy objectives"
            )
        return float(value)

    def dominates(self, other: "DesignPoint", objectives: Sequence[str]) -> bool:
        """Pareto dominance: no worse in every objective, strictly better in one."""
        no_worse = all(self.objective(o) <= other.objective(o) for o in objectives)
        strictly_better = any(self.objective(o) < other.objective(o) for o in objectives)
        return no_worse and strictly_better


def validate_sweep_axes(parameters: Mapping[str, object]) -> Dict[str, tuple]:
    """Validate a mapping of swept ``ArchitectureConfig`` fields to value lists.

    Returns the normalized ``{field: tuple(values)}`` mapping.  Raises with an
    actionable message (including a did-you-mean suggestion for typos) on an
    unknown field name or a malformed axis -- a scalar instead of a sequence, a
    string, or an empty value list.
    """
    import difflib

    known_fields = {f.name for f in dataclasses.fields(ArchitectureConfig)}
    if not parameters:
        raise ValueError("design space must sweep at least one parameter")
    normalized: Dict[str, tuple] = {}
    for name, values in parameters.items():
        if name not in known_fields:
            close = difflib.get_close_matches(str(name), sorted(known_fields), n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            known = ", ".join(sorted(known_fields))
            raise KeyError(
                f"unknown ArchitectureConfig field {name!r}{hint}; known fields: {known}"
            )
        if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
            raise TypeError(
                f"sweep axis {name!r} must be a sequence of candidate values, "
                f"got {type(values).__name__}: {values!r}"
            )
        values = tuple(values)
        if not values:
            raise ValueError(f"sweep axis {name!r} has no candidate values")
        normalized[name] = values
    return normalized


@dataclass
class DesignSpace:
    """The grid of `ArchitectureConfig` fields to sweep."""

    parameters: Dict[str, Sequence[object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.parameters = dict(validate_sweep_axes(self.parameters))

    @classmethod
    def from_axes(cls, axes: Mapping[str, Sequence[object]]) -> "DesignSpace":
        """Build a design space from declarative sweep axes (e.g. a ScenarioSpec's)."""
        return cls(dict(axes))

    def grid(self) -> Iterable[Dict[str, object]]:
        """Iterate over every combination of candidate values."""
        names = sorted(self.parameters)
        for combo in itertools.product(*(self.parameters[name] for name in names)):
            yield dict(zip(names, combo))

    def size(self) -> int:
        total = 1
        for values in self.parameters.values():
            total *= len(list(values))
        return total


@dataclass
class ExplorationResult:
    """All evaluated design points plus convenience queries.

    ``points`` holds each distinct visited design once, in first-visit order;
    ``evaluations`` counts every evaluation a strategy requested (revisits
    included -- they are cache hits); ``cache_stats`` snapshots the shared
    engine cache's per-pass hit/miss counters at the end of the exploration.
    """

    points: List[DesignPoint] = field(default_factory=list)
    objectives: Sequence[str] = ("energy_uj", "latency_ns", "area_mm2")
    evaluations: int = 0
    strategy: str = "grid"
    cache_stats: Dict[str, CacheStats] = field(default_factory=dict)
    backend: str = "serial"
    #: Wall-clock spent in each engine pass during this exploration (merged
    #: across workers under the process backend), so backend speedups are
    #: attributable pass by pass.
    pass_timings: Dict[str, PassTiming] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def best(self, objective: str) -> DesignPoint:
        if not self.points:
            raise ValueError("no design points evaluated")
        return min(self.points, key=lambda p: p.objective(objective))

    def pareto_front(self, objectives: Optional[Sequence[str]] = None) -> List[DesignPoint]:
        return pareto_front(self.points, objectives or self.objectives)

    def as_rows(self) -> List[Sequence[object]]:
        """Rows suitable for :func:`repro.utils.format.format_table`."""
        rows = []
        for point in self.points:
            params = ", ".join(f"{k}={v}" for k, v in sorted(point.parameters.items()))
            rows.append(
                (
                    params,
                    point.energy_uj,
                    point.latency_ns,
                    point.area_mm2,
                    point.power_w,
                    point.energy_per_mac_pj,
                )
            )
        return rows


def pareto_front(points: Sequence[DesignPoint], objectives: Sequence[str]) -> List[DesignPoint]:
    """Non-dominated subset of ``points`` under minimize-all ``objectives``.

    Processes candidates in lexicographic objective order and tests each only
    against the incumbent non-dominated set: any dominator of a point sorts
    strictly before it (all objectives <=, one <, so its objective tuple is
    lexicographically smaller), and by transitivity a dominated point is always
    dominated by some *maximal* point, which is already in the front when the
    candidate arrives.  That replaces the seed's all-pairs scan (every candidate
    against all n points, dominated ones included) with an
    ``O(n log n + n * |front|)`` sweep.  Output preserves input order, ties and
    duplicates exactly like the brute-force version.
    """
    if not objectives:
        raise ValueError("need at least one objective")
    tuples: List[Tuple[float, ...]] = []
    for index, point in enumerate(points):
        values = tuple(point.objective(o) for o in objectives)
        if any(math.isnan(v) for v in values):
            # A NaN compares false against everything, so it would neither sort
            # nor dominate consistently and silently corrupt the sweep's
            # dominance invariant -- reject it loudly instead.
            bad = {o: v for o, v in zip(objectives, values) if math.isnan(v)}
            params = ", ".join(f"{k}={v}" for k, v in sorted(point.parameters.items()))
            raise ValueError(
                f"design point {index} ({params or 'no swept parameters'}) has "
                f"NaN objective(s) {sorted(bad)}; NaN cannot be ordered for "
                "Pareto dominance -- fix the degenerate evaluation (e.g. a "
                "zero-denominator link budget) or drop the point before "
                "calling pareto_front"
            )
        tuples.append(values)
    front_indices: List[int] = []
    front: List[Tuple[float, ...]] = []
    for index in sorted(range(len(points)), key=tuples.__getitem__):
        candidate = tuples[index]
        # DesignPoint.dominates on the tuples: with NaN excluded, "no worse
        # in every objective" plus "not equal" is "strictly better in one".
        for other in front:
            if other != candidate and all(map(operator.le, other, candidate)):
                break
        else:
            front_indices.append(index)
            front.append(candidate)
    return [points[i] for i in sorted(front_indices)]


# -- process-backend worker protocol ---------------------------------------------------


@dataclass(frozen=True)
class _DesignTaskContext:
    """Picklable, task-invariant payload for process-backend design evaluation.

    Carries specs and data (builder *reference*, config dataclasses, workload
    records) -- never live engines or caches.  ``key`` is a parent-computed
    content address the workers memoize their per-process explorer on, so
    every group a worker evaluates, in this round and later ones, shares one
    architecture/engine setup and one evaluation cache.
    """

    key: str
    builder: ArchBuilder
    base_config: ArchitectureConfig
    sim_config: SimulationConfig
    #: Either the workload tuple itself or a :class:`ShmHandle` naming a
    #: shared-memory segment holding its pickle (zero-copy fan-out: N workers
    #: attach one segment instead of receiving N pickled operand copies, and
    #: the operand arrays they unpickle are read-only views of it).
    workloads: Union[Tuple[object, ...], ShmHandle]
    cache_enabled: bool
    cache_max_entries: Optional[int]
    accuracy: Optional[AccuracyRequest] = None
    #: Parent ``REPRO_*`` environment at encoding time, applied around every
    #: task so cluster workers on other hosts evaluate under the parent's
    #: forward/RNG/dtype modes, not their own shell's.
    env: Optional[Dict[str, str]] = None


@dataclass
class _DesignTaskOutcome:
    """Picklable per-group return: the group's points in order, plus telemetry.

    ``telemetry`` covers the whole group: its engine passes and the growth of
    the worker cache's hit/miss counters while the group ran.
    """

    points: List["DesignPoint"]
    telemetry: WorkerTelemetry


#: Per-process explorer instances, keyed by :attr:`_DesignTaskContext.key`;
#: each holds its own per-worker :class:`EvaluationCache` whose hit/miss
#: deltas travel back to the parent with every task outcome.  Lock-guarded:
#: workers served on threads of one process (``run_worker`` in a thread) call
#: :func:`_worker_explorer` concurrently, and an unguarded check-then-insert
#: would let two threads build rival explorers for one key (splitting the
#: shared cache and dropping telemetry deltas).
_WORKER_EXPLORERS: Dict[str, "DesignSpaceExplorer"] = {}
_WORKER_EXPLORERS_LOCK = threading.Lock()


def _worker_explorer(shared: _DesignTaskContext) -> "DesignSpaceExplorer":
    from repro.exec.shm import as_object

    with _WORKER_EXPLORERS_LOCK:
        explorer = _WORKER_EXPLORERS.get(shared.key)
        if explorer is None:
            explorer = DesignSpaceExplorer(
                shared.builder,
                as_object(shared.workloads),
                base_config=shared.base_config,
                sim_config=shared.sim_config,
                cache=EvaluationCache(
                    enabled=shared.cache_enabled, max_entries=shared.cache_max_entries
                ),
                accuracy=shared.accuracy,
            )
            _WORKER_EXPLORERS[shared.key] = explorer
    return explorer


def _evaluate_design_task(
    shared: _DesignTaskContext, group: Sequence[Mapping[str, object]]
) -> _DesignTaskOutcome:
    """Evaluate one contiguous group of design points inside a worker process.

    The whole group runs under one ``REPRO_*`` env pin and one pass observer,
    is evaluated as one batch (its misses share engine batches, as on the
    serial backend) and reports one cache-stat delta.  Tasks within one
    worker run sequentially, so plain counters suffice; the stats are a delta
    so the parent's merge never double-counts the worker cache shared across
    groups.
    """
    explorer = _worker_explorer(shared)
    cache = explorer.cache
    stats_before = cache_stats_snapshot(cache)
    telemetry = WorkerTelemetry()
    with applied_env_snapshot(shared.env), observe_passes(
        scoped_pass_observer(cache, telemetry)
    ):
        points = explorer._evaluate_batch([dict(overrides) for overrides in group])
    telemetry.cache_stats = cache_stats_delta(cache, stats_before)
    return _DesignTaskOutcome(points=points, telemetry=telemetry)


def _contiguous_groups(batch: Sequence[object], count: int) -> List[Sequence[object]]:
    """``batch`` cut into ``min(count, len(batch))`` contiguous groups, in order.

    Group sizes differ by at most one (the leading groups take the
    remainder), so no worker gets more than one extra point.
    """
    count = min(count, len(batch))
    size, extra = divmod(len(batch), count)
    groups: List[Sequence[object]] = []
    start = 0
    for index in range(count):
        stop = start + size + (index < extra)
        groups.append(batch[start:stop])
        start = stop
    return groups


class DesignSpaceExplorer:
    """Sweeps a template architecture over a design space for a fixed workload set.

    All design points share one :class:`~repro.core.cache.EvaluationCache`: the
    engine's staged passes memoize on canonical input fingerprints, so a sweep
    that varies one parameter only re-runs the passes that parameter invalidates
    (``cache=False`` restores the seed's build-everything-per-point behaviour).
    The default cache retains every visited point's pass results; for very large
    sweeps bound its footprint with ``cache_max_entries`` (oldest entries are
    evicted first) or pass a pre-configured ``EvaluationCache`` instance.

    ``backend`` selects how strategy batches execute (:mod:`repro.exec`): an
    :class:`~repro.exec.ExecutionBackend` instance, a name (``serial`` /
    ``processes`` / ``cluster``) or None (serial).  ``max_workers`` sizes a
    parallel backend's worker fleet and never picks a backend.  Every backend
    collects results in task order, so point ordering -- and therefore every
    recorded value -- is identical to a serial run.  A task-shipping backend
    gets each strategy batch cut into ``min(jobs, len(batch))`` contiguous
    groups, one task per group: a worker then evaluates its own slice of the
    grid's leading axes against its per-worker explorer and cache, and
    returns the group's points with one telemetry record (pass counts and
    cache hit/miss deltas) that is merged into the
    :class:`ExplorationResult`.  Such backends require a picklable,
    module-level ``builder`` (every template builder in
    :mod:`repro.arch.templates` qualifies).

    ``base_config`` and ``sim_config`` are snapshotted at construction: every
    design point is evaluated against the snapshots and keyed on their
    digests, so editing the caller's config objects afterwards changes
    neither (build a new explorer to explore another base).  The
    ``base_config``/``sim_config`` attributes return copies of the snapshots.
    The workload sequence is snapshotted too: ``workloads`` is a tuple, so the
    set a cached explorer keys its points on cannot grow or shrink under it.
    """

    def __init__(
        self,
        builder: ArchBuilder,
        workloads: WorkloadSet,
        base_config: Optional[ArchitectureConfig] = None,
        sim_config: Optional[SimulationConfig] = None,
        cache: object = True,
        max_workers: Optional[int] = None,
        cache_max_entries: Optional[int] = None,
        backend: object = None,
        accuracy: Optional[AccuracyRequest] = None,
    ) -> None:
        workloads = tuple(workloads)
        if not workloads:
            raise ValueError("need at least one workload to explore against")
        for workload in workloads:
            if not isinstance(workload, (GEMMWorkload, LayerWorkload)):
                raise TypeError(
                    "workloads must be GEMMWorkload or LayerWorkload instances, "
                    f"got {type(workload).__name__}"
                )
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive when given")
        self.builder = builder
        self.workloads = workloads
        self._base_config = copy.deepcopy(base_config or ArchitectureConfig())
        self._sim_config = copy.deepcopy(sim_config or SimulationConfig())
        if isinstance(cache, EvaluationCache):
            if cache_max_entries is not None:
                raise ValueError("pass cache_max_entries or a pre-built cache, not both")
            self.cache = cache
        else:
            self.cache = EvaluationCache(
                enabled=bool(cache), max_entries=cache_max_entries
            )
        if accuracy is not None and not isinstance(accuracy, AccuracyRequest):
            raise TypeError(
                "accuracy must be an AccuracyRequest (repro.variation), "
                f"got {type(accuracy).__name__}"
            )
        self.accuracy = accuracy
        self.max_workers = max_workers
        self._backend_spec = backend
        self._workloads_key = None
        self._point_key_prefix: Optional[tuple] = None
        self._engine: Optional[EvaluationEngine] = None

    @property
    def base_config(self) -> ArchitectureConfig:
        """A copy of the base architecture config snapshotted at construction."""
        return copy.deepcopy(self._base_config)

    @property
    def sim_config(self) -> SimulationConfig:
        """A copy of the simulation config snapshotted at construction."""
        return copy.deepcopy(self._sim_config)

    def _config_for(self, overrides: Mapping[str, object]) -> ArchitectureConfig:
        return dataclasses.replace(self._base_config, **overrides)

    def _workload_set_key(self) -> tuple:
        if self._workloads_key is None:
            self._workloads_key = tuple(workload_fingerprint(w) for w in self.workloads)
        return self._workloads_key

    def _design_point_prefix(self) -> tuple:
        """The canonical, sweep-constant part of every design-point key.

        Computed once per explorer from the construction-time config snapshots,
        so it always describes the configs the points are evaluated against.
        """
        if self._point_key_prefix is None:
            self._point_key_prefix = fingerprint(
                "design_point",
                builder_key(self.builder),
                config_fingerprint(self._base_config),
                self._workload_set_key(),
                config_fingerprint(self._sim_config),
                self.accuracy.fingerprint() if self.accuracy is not None else None,
            )
        return self._point_key_prefix

    # -- design-point evaluation -----------------------------------------------------
    def evaluate(self, overrides: Mapping[str, object]) -> DesignPoint:
        """Simulate a single design point and return its objective record.

        The whole point is memoized on (builder, config, workloads, sim config),
        so strategies may propose the same point repeatedly for free.
        """
        return self._evaluate_batch([overrides])[0]

    def _evaluate_batch(self, batch: Sequence[Mapping[str, object]]) -> List[DesignPoint]:
        """The design points of ``batch``, in order.

        Cache hits are served point by point; the misses are simulated
        together, one engine batch per built structure
        (:meth:`~repro.core.engine.EvaluationEngine.run_batch`), and stored.
        A point repeated within the batch counts as a hit on its first
        evaluation, as it would if the points were evaluated one by one.
        """
        cache = self.cache
        points: List[Optional[DesignPoint]] = [None] * len(batch)
        misses: Dict[object, List[int]] = {}
        for index, overrides in enumerate(batch):
            key: object = index  # a disabled cache misses every point
            if cache.enabled:
                # The sweep-constant prefix plus the canonical override pairs:
                # on a hit the ArchitectureConfig is never even constructed.
                key = (
                    self._design_point_prefix(),
                    tuple((name, canonical_value(v)) for name, v in sorted(overrides.items())),
                )
            if key in misses:
                misses[key].append(index)
                continue
            found, point = cache.lookup("design_point", key)
            if found:
                points[index] = point
            else:
                misses[key] = [index]
        if misses:
            evaluated = self._evaluate_configs(
                [batch[indices[0]] for indices in misses.values()]
            )
            for (key, indices), point in zip(misses.items(), evaluated):
                cache.store("design_point", key, point)
                points[indices[0]] = point
                for repeat in indices[1:]:
                    points[repeat] = cache.get_or_compute(
                        "design_point", key, lambda: point
                    )
        return points

    def _evaluate_configs(
        self, batch: Sequence[Mapping[str, object]]
    ) -> List[DesignPoint]:
        archs = []
        for overrides in batch:
            config = self._config_for(overrides)
            archs.append(
                resolve_architecture(
                    self.builder, config, name=f"{config.name}_dse", cache=self.cache
                )
            )
        engine = self._engine
        if engine is None:
            # One engine serves every design point (analyzers are stateless and
            # the cache is thread-safe); a benign race may build two, one wins.
            engine = EvaluationEngine(archs[0], self._sim_config, cache=self.cache)
            self._engine = engine
        # One engine batch per structure: the layer analysis shares its plan
        # across a structure's points, and a batch keeps all of its points'
        # contexts alive until its last pass.
        by_structure: Dict[int, List[int]] = {}
        for index, arch in enumerate(archs):
            by_structure.setdefault(structure_token(arch), []).append(index)
        points: List[Optional[DesignPoint]] = [None] * len(archs)
        for indices in by_structure.values():
            results = engine.run_batch([archs[i] for i in indices], self.workloads)
            for index, result in zip(indices, results):
                points[index] = self._design_point(engine, archs[index], batch[index], result)
        return points

    def _design_point(
        self,
        engine: EvaluationEngine,
        arch: Architecture,
        overrides: Mapping[str, object],
        result,
    ) -> DesignPoint:
        link = next(iter(result.link_budgets.values()))
        accuracy: Optional[float] = None
        error_rate: Optional[float] = None
        if self.accuracy is not None:
            report = engine.run_accuracy(self.accuracy, arch=arch)
            accuracy = report.accuracy_mean
            error_rate = report.error_rate
        return DesignPoint(
            parameters=dict(overrides),
            energy_uj=result.total_energy_uj,
            latency_ns=result.total_time_ns,
            area_mm2=result.total_area_mm2,
            power_w=result.total_power_w,
            laser_power_mw=link.total_laser_electrical_power_mw,
            energy_per_mac_pj=result.energy_per_mac_pj,
            accuracy=accuracy,
            error_rate=error_rate,
        )

    # -- process-backend task encoding -------------------------------------------------
    def _process_context(self) -> _DesignTaskContext:
        """The picklable, task-invariant payload shipped to worker processes."""
        from repro.exec.shm import publish_object, shm_enabled

        try:
            pickle.dumps(self.builder)
        except Exception as exc:
            raise ValueError(
                "the process backend requires a picklable architecture builder "
                "(a module-level function such as repro.arch.templates."
                "build_tempo, not a lambda or closure): "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        key = digest(
            "dse-exec-context",
            getattr(self.builder, "__module__", "?"),
            getattr(self.builder, "__qualname__", repr(self.builder)),
            config_fingerprint(self._base_config),
            config_fingerprint(self._sim_config),
            self._workload_set_key(),
            self.cache.enabled,
            self.cache.max_entries,
            self.accuracy.fingerprint() if self.accuracy is not None else None,
        )
        workloads: Union[Tuple[object, ...], ShmHandle] = self.workloads
        if shm_enabled():
            # Operand tensors dominate the context payload; publish them once
            # so every worker task ships a digest instead of the pickle.
            workloads = publish_object(workloads)
        return _DesignTaskContext(
            key=key,
            builder=self.builder,
            base_config=self._base_config,
            sim_config=self._sim_config,
            workloads=workloads,
            cache_enabled=self.cache.enabled,
            cache_max_entries=self.cache.max_entries,
            accuracy=self.accuracy,
            env=repro_env_snapshot(),
        )

    # -- exploration loop ------------------------------------------------------------
    def explore(
        self,
        space: DesignSpace,
        strategy: object = None,
        progress: Optional[ProgressCallback] = None,
        max_evaluations: Optional[int] = None,
        max_workers: Optional[int] = None,
        backend: object = None,
    ) -> ExplorationResult:
        """Evaluate the design points a strategy proposes (default: the full grid).

        ``progress(point, num_evaluated, space_size)`` streams every completed
        evaluation in deterministic order; ``max_evaluations`` is an early-stop
        budget on strategy-requested evaluations; ``max_workers`` and
        ``backend`` override the explorer-level settings for this call.
        """
        if max_evaluations is not None and max_evaluations < 1:
            raise ValueError("max_evaluations must be positive when given")
        search: SearchStrategy = resolve_strategy(strategy)
        search.reset()
        workers = max_workers if max_workers is not None else self.max_workers
        spec = backend if backend is not None else self._backend_spec
        exec_backend: ExecutionBackend = resolve_backend(spec, workers)
        use_processes = exec_backend.ships_tasks
        context = self._process_context() if use_processes else None
        space_size = space.size()

        history: List[DesignPoint] = []
        points: List[DesignPoint] = []
        seen_params: set = set()
        evaluations = 0
        telemetry = WorkerTelemetry()
        # Count only this explorer's engines (scoped by cache identity), so
        # concurrent explorers or an enclosing batch runner stay unaffected.
        observe = scoped_pass_observer(self.cache, telemetry, lock=threading.Lock())

        def record_batch(batch_points: List[DesignPoint]) -> None:
            for point in batch_points:
                history.append(point)
                params_key = tuple(sorted((k, repr(v)) for k, v in point.parameters.items()))
                if params_key not in seen_params:
                    seen_params.add(params_key)
                    points.append(point)
                if progress is not None:
                    progress(point, len(history), space_size)

        # One backend session for the whole exploration: pools (and the process
        # workers' memoized explorers/caches) persist across strategy rounds,
        # so feedback-driven strategies don't pay pool startup per batch.
        with observe_passes(observe), exec_backend.session():
            while True:
                batch = search.propose(space, history)
                if not batch:
                    break
                if max_evaluations is not None:
                    remaining = max_evaluations - evaluations
                    batch = batch[:remaining]
                    if not batch:
                        break
                groups = _contiguous_groups(batch, exec_backend.jobs)
                if use_processes:
                    outcomes = exec_backend.map_tasks(
                        _evaluate_design_task, groups, shared=context
                    )
                    batch_points = [
                        point for outcome in outcomes for point in outcome.points
                    ]
                    for outcome in outcomes:
                        outcome.telemetry.merge_into(telemetry)
                else:
                    batch_points = [
                        point
                        for group_points in exec_backend.map_tasks(
                            lambda _shared, group: self._evaluate_batch(group), groups
                        )
                        for point in group_points
                    ]
                evaluations += len(batch)
                record_batch(batch_points)
                if max_evaluations is not None and evaluations >= max_evaluations:
                    break

        own_stats = {
            stage: CacheStats(
                hits=stats.hits, misses=stats.misses, evictions=stats.evictions
            )
            for stage, stats in self.cache.stats.items()
        }
        return ExplorationResult(
            points=points,
            evaluations=evaluations,
            strategy=search.name,
            cache_stats=merge_cache_stats([own_stats, telemetry.cache_stats]),
            backend=exec_backend.name,
            pass_timings=telemetry.pass_timings,
        )
