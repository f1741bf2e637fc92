"""Execution backends, scoped pass observation, and store/runner concurrency.

The satellite guarantees of the backend subsystem:

- every backend returns results in task order, so serial and process
  executions are byte-identical;
- concurrent writers (threads *and* processes) never publish a torn artifact
  into one :class:`~repro.scenarios.store.ResultStore`;
- pass counting is per-runner (scoped by cache identity), so concurrent
  runners or an enclosing ``observe_passes`` block never cross-contaminate;
- validation errors (bad ``--jobs``, unknown ``--backend``, NaN objectives,
  unpicklable process tasks) are loud and actionable.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.core.cache import EvaluationCache
from repro.core.engine import observe_passes
from repro.core.knobs import forced_env
from repro.exec import (
    BACKENDS,
    PassTiming,
    SerialBackend,
    merge_cache_stats,
    merge_pass_timings,
    resolve_backend,
)
from repro.exec.cluster import ProcessBackend
from repro.explore import DesignPoint, DesignSpace, DesignSpaceExplorer, pareto_front
from repro.scenarios import BatchRunner, ResultStore, ScenarioResult

PASS_SCENARIOS = ("fig7_tempo_validation", "fig6_layout", "table1_taxonomy")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- helpers that must be picklable (module-level) for process-backend tests -----------


def _square_task(shared, task):
    offset = shared or 0
    return task * task + offset


def _failing_task(shared, task):
    if task == 3:
        raise RuntimeError("task three exploded")
    return task


def _worker_pid(shared, task):
    return os.getpid()


def _die_once(shared, task):
    """SIGKILL this worker the first time the flagged task runs.

    The marker file makes the kill one-shot: the requeued attempt on the
    surviving worker sees it and completes, so results stay a pure function
    of the task encoding.
    """
    marker, value = task
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value + (shared or 0)


#: Marker path that arms :func:`_build_tempo_or_die`; forked workers inherit
#: it, the serial reference runs with it unset.
_KILL_MARKER = None


def _build_tempo_or_die(config=None, name="tempo"):
    """``build_tempo`` that SIGKILLs its worker once, on the first 8-high core."""
    from repro.arch.templates import build_tempo

    marker = _KILL_MARKER
    if marker is not None and config.core_height == 8 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return build_tempo(config=config, name=name)


class _RoundRecorder:
    """Mixin recording the task and design-point counts of every ``map_tasks`` round.

    The explorer's tasks are contiguous groups of design points.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounds = []
        self.points = []

    def map_tasks(self, fn, tasks, shared=None):
        self.rounds.append(len(tasks))
        self.points.append(sum(len(group) for group in tasks))
        return super().map_tasks(fn, tasks, shared)


class _RecordingSerial(_RoundRecorder, SerialBackend):
    pass


class _RecordingProcesses(_RoundRecorder, ProcessBackend):
    pass


def _save_artifact(args):
    """Worker for multi-process store hammering: save one artifact, return its path."""
    root, name, fp, writer = args
    store = ResultStore(root)
    result = ScenarioResult(
        table=f"table from writer {writer}\n" + "x" * 20000,
        metrics={"writer": writer, "blob": "y" * 20000},
        name=name,
        fingerprint=fp,
    )
    return str(store.save(result))


def _assert_store_artifacts_complete(store: ResultStore) -> None:
    """Every .json in the store parses and carries its full payload; no tmp files."""
    artifacts = list(store.root.glob("*.json"))
    assert artifacts, "no artifacts were published"
    for path in artifacts:
        payload = json.loads(path.read_text())  # a torn file would raise here
        assert payload["fingerprint"][:16] == path.stem.rsplit("-", 1)[-1]
        assert len(payload["metrics"]["blob"]) == 20000
        assert payload["table"].endswith("x" * 20000)
    leftovers = [p for p in store.root.iterdir() if p.suffix == ".tmp"]
    assert leftovers == [], f"temp files left behind: {leftovers}"


# -- backend basics ---------------------------------------------------------------------


class TestBackends:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_map_tasks_preserves_task_order(self, backend):
        resolved = resolve_backend(backend, jobs=3)
        tasks = list(range(17))
        assert resolved.map_tasks(_square_task, tasks, shared=1) == [
            t * t + 1 for t in tasks
        ]

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_empty_task_list(self, backend):
        assert resolve_backend(backend, jobs=2).map_tasks(_square_task, []) == []

    @pytest.mark.parametrize("count", [1, 3, 100])
    def test_process_chunking_is_order_invariant(self, count):
        # One chunk, one task per chunk, and size-tiered chunks of 12 down to 1.
        backend = ProcessBackend(jobs=2)
        tasks = list(range(count))
        assert backend.map_tasks(_square_task, tasks) == [t * t for t in tasks]

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_task_errors_propagate(self, backend):
        resolved = resolve_backend(backend, jobs=2)
        with pytest.raises(RuntimeError, match="task three exploded"):
            resolved.map_tasks(_failing_task, [1, 2, 3, 4])

    def test_killed_process_worker_chunk_is_requeued(self, tmp_path):
        """A local worker that dies mid-round loses nothing: the coordinator
        requeues its chunk on the survivor (a process pool would raise
        BrokenProcessPool here)."""
        marker = str(tmp_path / "killed-once")
        tasks = [(marker if value == 5 else None, value) for value in range(12)]
        serial = SerialBackend().map_tasks(
            _die_once, [(None, value) for _, value in tasks], shared=7
        )
        assert ProcessBackend(jobs=2).map_tasks(_die_once, tasks, shared=7) == serial
        assert os.path.exists(marker), "the flagged task never ran"

    def test_process_backend_rejects_unpicklable_tasks(self):
        backend = ProcessBackend(jobs=2)
        with pytest.raises(ValueError, match="picklable"):
            backend.map_tasks(_square_task, [lambda: None])

    def test_process_backend_rejects_unpicklable_fn(self):
        backend = ProcessBackend(jobs=2)
        with pytest.raises(ValueError, match="module-level"):
            backend.map_tasks(lambda shared, task: task, [1])

    def test_session_keeps_process_workers_alive_across_rounds(self):
        """Multi-round strategies must not re-fork (and lose worker memos) per
        batch: inside one session, consecutive map_tasks calls land on the same
        worker processes."""
        backend = ProcessBackend(jobs=2)
        with backend.session():
            assert backend._pool is not None
            first = set(backend.map_tasks(_worker_pid, range(8)))
            second = set(backend.map_tasks(_worker_pid, range(8)))
        # One pool serves both rounds: across them at most `jobs` distinct
        # workers ever ran (fresh pools per round would show up to 2x, and
        # the pool spawns lazily, so per-round sets need not even overlap).
        assert len(first | second) <= backend.jobs
        # After the session the pool is torn down.
        assert backend._pool is None
        assert set(backend.map_tasks(_worker_pid, range(8))).isdisjoint(first)

    def test_session_rounds_each_run_on_their_own_context(self):
        """Contexts A, B, A on one leased fleet: every round ships its own
        context, so a worker answering from an earlier round's context
        would return the wrong offsets."""
        backend = ProcessBackend(jobs=2)
        tasks = list(range(9))
        offsets = (10, 20, 10)
        with backend.session():
            rounds = [
                backend.map_tasks(_square_task, tasks, shared=offset)
                for offset in offsets
            ]
        assert rounds == [[t * t + offset for t in tasks] for offset in offsets]

    def test_sessions_nest_and_share_the_outer_pool(self):
        backend = ProcessBackend(jobs=2)
        with backend.session():
            outer = set(backend.map_tasks(_worker_pid, range(8)))
            with backend.session():
                inner = set(backend.map_tasks(_worker_pid, range(8)))
            # The inner exit must not have torn down the outer session's pool.
            assert backend._pool is not None
            final = set(backend.map_tasks(_worker_pid, range(8)))
        assert len(outer | inner | final) <= backend.jobs
        assert backend._pool is None

    def test_coordinate_descent_on_processes_matches_serial(self):
        from repro.arch import ArchitectureConfig
        from repro.arch.templates import build_tempo
        from repro.dataflow.gemm import GEMMWorkload
        from repro.explore.search import CoordinateDescent

        workload = GEMMWorkload("g", m=32, k=16, n=32)
        base = ArchitectureConfig(
            num_tiles=1, cores_per_tile=1, core_height=2, core_width=2
        )
        space = DesignSpace({"core_height": [2, 4], "num_wavelengths": [1, 2]})

        def run(backend):
            return DesignSpaceExplorer(
                build_tempo, [workload], base_config=base, backend=backend,
                max_workers=2,
            ).explore(space, strategy=CoordinateDescent(objective="energy_uj"))

        serial, procs = run("serial"), run("processes")
        assert procs.points == serial.points
        assert procs.evaluations == serial.evaluations


class TestResolveBackend:
    def test_none_defaults_to_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend(None, jobs=1), SerialBackend)

    def test_none_with_jobs_is_serial(self):
        # jobs sizes a parallel backend; it never picks one.
        assert isinstance(resolve_backend(None, jobs=4), SerialBackend)

    def test_names_construct_their_backend(self):
        assert set(BACKENDS) == {"serial", "processes", "cluster"}
        assert isinstance(resolve_backend("serial", jobs=8), SerialBackend)
        assert resolve_backend("processes", jobs=2).jobs == 2
        # Constructing the cluster backend must not open any socket yet: the
        # coordinator starts lazily on the first map_tasks call.
        assert resolve_backend("cluster", jobs=2).jobs == 2

    def test_instance_passthrough(self):
        backend = ProcessBackend(2)
        assert resolve_backend(backend) is backend

    def test_unknown_name_suggests(self):
        with pytest.raises(KeyError, match=r"procces.*did you mean 'processes'"):
            resolve_backend("procces")

    def test_threads_is_not_a_backend(self):
        with pytest.raises(
            KeyError, match=r"unknown execution backend 'threads'.*known: "
            r"cluster, processes, serial"
        ):
            resolve_backend("threads")

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_backend("processes", jobs=jobs)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend(3.14)


def _run_cold(tmp_path, script):
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_serial_imports_leave_task_shipping_machinery_unloaded(tmp_path):
    # The serial request path's imports, then the first task-shipping backend
    # name, then a process-backend scenario through the CLI.
    out = _run_cold(tmp_path, """
import sys
import repro.scenarios, repro.explore, repro.variation
heavy = ("networkx", "repro.exec.cluster", "repro.exec.shm", "repro.exec.pool")
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, f"serial imports loaded {loaded}"
from repro.exec import resolve_backend
backend = resolve_backend("processes", 2)
assert (backend.name, backend.jobs) == ("processes", 2), backend
from repro.cli import main
sys.exit(main(["run", "dse_large_grid", "--no-store", "--param", "backend=processes"]))
""")
    with open(os.path.join(REPO_ROOT, "benchmarks", "results", "dse_large_grid.txt")) as fh:
        reference = fh.read()
    assert out == "=== dse_large_grid ===\n" + reference


def test_cli_import_and_list_leave_task_shipping_machinery_unloaded(tmp_path):
    # The --backend choices are declared statically; the worker command
    # imports the cluster module only when it runs.
    _run_cold(tmp_path, """
import sys
from repro.cli import main
assert main(["list"]) == 0
heavy = ("repro.exec.cluster", "repro.exec.shm", "repro.exec.pool")
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, f"the CLI loaded {loaded}"
from repro.exec import BACKEND_NAMES, BACKENDS
import repro.exec.cluster
assert BACKEND_NAMES == tuple(sorted(BACKENDS)), (BACKEND_NAMES, sorted(BACKENDS))
""")


def test_cold_resolve_errors_name_every_backend(tmp_path):
    out = _run_cold(tmp_path, """
from repro.exec import resolve_backend
for bad in (3.14, "procces"):
    try:
        resolve_backend(bad)
    except (KeyError, TypeError) as exc:
        print(exc)
""")
    type_error, key_error = out.splitlines()
    assert "(cluster, processes, serial)" in type_error
    assert "did you mean 'processes'" in key_error
    assert "known: cluster, processes, serial" in key_error


class TestTelemetryMerging:
    def test_merge_pass_timings(self):
        a = {"map": PassTiming(count=2, total_s=0.5)}
        b = {"map": PassTiming(count=1, total_s=0.25), "area": PassTiming(1, 0.1)}
        merged = merge_pass_timings([a, b])
        assert merged["map"].count == 3
        assert merged["map"].total_s == pytest.approx(0.75)
        assert merged["area"].count == 1

    def test_merge_cache_stats(self):
        from repro.core.cache import CacheStats

        merged = merge_cache_stats(
            [{"map": CacheStats(hits=2, misses=1)}, {"map": CacheStats(hits=0, misses=4)}]
        )
        assert (merged["map"].hits, merged["map"].misses) == (2, 5)

    def test_merge_pass_timings_is_associative_and_order_independent(self):
        """Cluster merges fold telemetry in worker-completion order, which is
        nondeterministic -- the merge must not care how deltas are grouped."""
        a = {"map": PassTiming(count=2, total_s=0.5)}
        b = {"map": PassTiming(count=1, total_s=0.25), "area": PassTiming(1, 0.1)}
        c = {"area": PassTiming(count=3, total_s=0.3), "link": PassTiming(2, 0.2)}

        def flatten(timings):
            return {k: (v.count, pytest.approx(v.total_s)) for k, v in timings.items()}

        left = merge_pass_timings([merge_pass_timings([a, b]), c])
        right = merge_pass_timings([a, merge_pass_timings([b, c])])
        flat = merge_pass_timings([a, b, c])
        reversed_order = merge_pass_timings([c, b, a])
        assert flatten(left) == flatten(flat)
        assert flatten(right) == flatten(flat)
        assert flatten(reversed_order) == flatten(flat)

    def test_merge_cache_stats_is_associative_and_order_independent(self):
        from repro.core.cache import CacheStats

        a = {"map": CacheStats(hits=2, misses=1)}
        b = {"map": CacheStats(hits=1, misses=0), "area": CacheStats(hits=3, misses=2)}
        c = {"area": CacheStats(hits=0, misses=5)}

        def flatten(stats):
            return {k: (v.hits, v.misses) for k, v in stats.items()}

        flat = merge_cache_stats([a, b, c])
        assert flatten(merge_cache_stats([merge_cache_stats([a, b]), c])) == flatten(flat)
        assert flatten(merge_cache_stats([a, merge_cache_stats([b, c])])) == flatten(flat)
        assert flatten(merge_cache_stats([c, b, a])) == flatten(flat)


# -- scoped pass observation ------------------------------------------------------------


class TestScopedPassObservation:
    def test_concurrent_runners_do_not_cross_contaminate(self):
        """Two runners in flight at once each count only their own passes."""
        reports = {}

        def run(key, names):
            reports[key] = BatchRunner(store=None).run(names)

        threads = [
            threading.Thread(target=run, args=("a", ["fig7_tempo_validation"])),
            threading.Thread(target=run, args=("b", ["fig10b_data_aware"])),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # fig7 simulates once (7 passes); fig10b simulates three modes (21).
        # Global (unscoped) counting would report 28 on both.
        assert reports["a"].engine_passes == 7
        assert reports["b"].engine_passes == 21

    def test_runner_inside_observed_block_keeps_its_own_count(self):
        seen_by_outer = []
        with observe_passes(
            lambda stage, engine, elapsed_s: seen_by_outer.append(stage)
        ):
            report = BatchRunner(store=None).run(["fig7_tempo_validation"])
        assert report.engine_passes == 7
        # The outer observer still sees everything (it chose not to filter).
        assert len(seen_by_outer) >= 7

    def test_stacked_registration_of_the_same_callback(self):
        events = []

        def cb(stage, engine, elapsed_s):
            events.append(stage)

        from repro.arch.templates import build_tempo
        from repro.core.engine import EvaluationEngine
        from repro.dataflow.gemm import GEMMWorkload

        with observe_passes(cb):
            with observe_passes(cb):
                EvaluationEngine(
                    build_tempo(), cache=EvaluationCache(enabled=False)
                ).run(GEMMWorkload("g", m=8, k=8, n=8))
            inner = len(events)
            EvaluationEngine(
                build_tempo(), cache=EvaluationCache(enabled=False)
            ).run(GEMMWorkload("g2", m=8, k=8, n=8))
        assert inner == 14  # both registrations fired per pass
        assert len(events) == inner + 7  # one registration left after inner exit

    def test_observer_timing_argument(self):
        timed = []
        with observe_passes(lambda stage, engine, elapsed_s: timed.append((stage, elapsed_s))):
            from repro.arch.templates import build_tempo
            from repro.core.engine import EvaluationEngine
            from repro.dataflow.gemm import GEMMWorkload

            EvaluationEngine(build_tempo(), cache=EvaluationCache(enabled=False)).run(
                GEMMWorkload("g", m=8, k=8, n=8)
            )
        assert len(timed) == 7
        assert all(isinstance(t, float) and t >= 0.0 for _, t in timed)


class TestConcurrentScalingRules:
    def test_concurrent_rule_construction_never_races(self):
        """Regression: ast.parse is not thread-safe on CPython <= 3.11, so
        concurrent template builds (threaded sweeps with caching off)
        intermittently raised ``SystemError: AST constructor recursion depth
        mismatch`` until ScalingRule serialized parsing behind a shared memo."""
        from repro.netlist.scaling import ScalingRule

        errors = []

        def build(worker):
            try:
                for i in range(200):
                    # Distinct expressions defeat the memo, forcing real parses.
                    rule = ScalingRule(f"R*C*H*W + {worker} * ceil(H / {i + 1})")
                    assert rule.count({"R": 2, "C": 2, "H": 4, "W": 4}) >= 64
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


# -- store concurrency ------------------------------------------------------------------


class TestStoreConcurrency:
    N_WRITERS = 8
    ROUNDS = 10

    def _fingerprints(self, same: bool):
        if same:
            return ["f" * 40] * self.N_WRITERS
        return [format(i, "x") * 40 for i in range(self.N_WRITERS)]

    @pytest.mark.parametrize("same_fingerprint", [True, False])
    def test_threaded_writers_never_tear_artifacts(self, tmp_path, same_fingerprint):
        store = ResultStore(tmp_path / "store")
        fps = self._fingerprints(same_fingerprint)
        errors = []

        def hammer(writer):
            try:
                for _ in range(self.ROUNDS):
                    _save_artifact((store.root, "demo", fps[writer], writer))
                    loaded = store.load("demo", fps[writer])
                    if loaded is not None:
                        assert len(loaded.metrics["blob"]) == 20000
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(self.N_WRITERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        _assert_store_artifacts_complete(store)
        expected = 1 if same_fingerprint else self.N_WRITERS
        assert len(list(store.root.glob("*.json"))) == expected

    @pytest.mark.parametrize("same_fingerprint", [True, False])
    def test_process_writers_never_tear_artifacts(self, tmp_path, same_fingerprint):
        store = ResultStore(tmp_path / "store")
        fps = self._fingerprints(same_fingerprint)
        jobs = [
            (store.root, "demo", fps[writer], writer)
            for writer in range(self.N_WRITERS)
            for _ in range(3)
        ]
        with ProcessPoolExecutor(max_workers=4) as pool:
            paths = list(pool.map(_save_artifact, jobs))
        assert all(path.endswith(".json") for path in paths)
        _assert_store_artifacts_complete(store)
        expected = 1 if same_fingerprint else self.N_WRITERS
        assert len(list(store.root.glob("*.json"))) == expected

    def test_mixed_thread_and_process_writers(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        fp = "a" * 40
        with ProcessPoolExecutor(max_workers=2) as procs, ThreadPoolExecutor(4) as pool:
            futures = [
                procs.submit(_save_artifact, (store.root, "demo", fp, i))
                for i in range(4)
            ] + [
                pool.submit(_save_artifact, (store.root, "demo", fp, 100 + i))
                for i in range(4)
            ]
            for future in futures:
                future.result()
        _assert_store_artifacts_complete(store)


# -- backend equivalence on real batches -------------------------------------------------


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return BatchRunner(store=None).run(PASS_SCENARIOS)

    @pytest.mark.parametrize("backend", ["processes"])
    def test_batch_tables_and_pass_counts_match_serial(self, serial_report, backend):
        report = BatchRunner(store=None, backend=backend, jobs=2).run(PASS_SCENARIOS)
        assert report.ok
        assert report.backend == backend
        for ours, reference in zip(report.items, serial_report.items):
            assert ours.name == reference.name
            assert ours.result.table == reference.result.table
            assert ours.result.metrics == reference.result.metrics
        assert report.engine_passes == serial_report.engine_passes
        assert sum(t.count for t in report.pass_timings.values()) == report.engine_passes

    def test_process_batch_warm_starts_from_the_store(self, tmp_path):
        store_root = tmp_path / "store"
        first = BatchRunner(store=ResultStore(store_root), backend="processes", jobs=2).run(
            PASS_SCENARIOS
        )
        second = BatchRunner(store=ResultStore(store_root), backend="processes", jobs=2).run(
            PASS_SCENARIOS
        )
        assert first.ok and not first.all_from_store
        assert first.engine_passes > 0
        assert second.all_from_store
        assert second.engine_passes == 0, (
            "a store-served process batch must not even spawn workers"
        )

    def test_process_batch_captures_errors_per_item(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MC_TRIALS", "not-a-number")
        report = BatchRunner(store=None, backend="processes", jobs=2).run(
            ["variation_robustness", "fig6_layout"]
        )
        assert not report.ok
        assert "ValueError" in report.item("variation_robustness").error
        assert report.item("fig6_layout").ok

    def test_process_batch_requires_the_global_registry(self):
        from repro.scenarios.registry import ScenarioRegistry

        with pytest.raises(ValueError, match="module-global"):
            BatchRunner(registry=ScenarioRegistry(), backend="processes")

    def test_process_batch_rejects_a_shared_cache(self):
        # Workers keep per-process caches; silently dropping a caller's
        # pre-warmed cache would masquerade as a cold run.
        with pytest.raises(ValueError, match="cannot share an in-memory"):
            BatchRunner(cache=EvaluationCache(), backend="processes")

    def test_explorer_backends_agree_and_merge_telemetry(self):
        from repro.arch import ArchitectureConfig
        from repro.arch.templates import build_tempo
        from repro.dataflow.gemm import GEMMWorkload

        workload = GEMMWorkload("g", m=64, k=16, n=64)
        base = ArchitectureConfig(
            num_tiles=1, cores_per_tile=1, core_height=2, core_width=2
        )
        space = DesignSpace({"core_height": [2, 4], "num_wavelengths": [1, 2]})

        def explore(backend):
            explorer = DesignSpaceExplorer(
                build_tempo, [workload], base_config=base, backend=backend,
                max_workers=2,
            )
            return explorer.explore(space)

        serial = explore("serial")
        result = explore("processes")
        assert result.points == serial.points
        assert result.backend == "processes"
        passes = sum(t.count for t in result.pass_timings.values())
        assert passes == sum(t.count for t in serial.pass_timings.values())
        assert result.cache_stats  # worker hit/miss telemetry merged back

    def test_explorer_process_backend_rejects_closure_builder(self):
        from repro.arch.templates import build_tempo
        from repro.dataflow.gemm import GEMMWorkload

        explorer = DesignSpaceExplorer(
            lambda **kwargs: build_tempo(**kwargs),
            [GEMMWorkload("g", m=8, k=8, n=8)],
            backend="processes",
        )
        with pytest.raises(ValueError, match="module-level"):
            explorer.explore(DesignSpace({"core_height": [2]}))


# -- grouped design-point dispatch -------------------------------------------------------


class TestGroupedDispatch:
    """A task-shipping backend gets one contiguous group of points per worker."""

    # 9 points: no worker count above one divides it.
    SPACE = {"core_height": [2, 4, 8], "num_wavelengths": [1, 2, 4]}

    @staticmethod
    def _explorer(backend=None, jobs=None, builder=None):
        from repro.arch import ArchitectureConfig
        from repro.arch.templates import build_tempo
        from repro.dataflow.gemm import GEMMWorkload

        # A shape no other test explores, so no worker memo from elsewhere in
        # the session can warm the per-worker caches this class counts.
        workload = GEMMWorkload("grouped", m=48, k=24, n=40)
        base = ArchitectureConfig(
            num_tiles=1, cores_per_tile=1, core_height=2, core_width=2
        )
        return DesignSpaceExplorer(
            builder or build_tempo, [workload], base_config=base,
            backend=backend, max_workers=jobs,
        )

    def test_contiguous_groups_cover_the_batch_in_order(self):
        from repro.explore.dse import _contiguous_groups

        batch = list(range(9))
        assert _contiguous_groups(batch, 2) == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]
        assert _contiguous_groups(batch, 5) == [[0, 1], [2, 3], [4, 5], [6, 7], [8]]
        assert _contiguous_groups(batch[:3], 5) == [[0], [1], [2]]
        assert _contiguous_groups(batch, 1) == [batch]

    @pytest.mark.parametrize("jobs", [1, 2, 5])
    def test_uneven_groups_match_serial(self, jobs):
        space = DesignSpace(self.SPACE)
        serial = self._explorer().explore(space)
        seen = []
        procs = self._explorer("processes", jobs).explore(
            space, progress=lambda point, done, total: seen.append((point, done))
        )
        assert procs.points == serial.points
        assert seen == [(point, index + 1) for index, point in enumerate(serial.points)]
        assert procs.as_rows() == serial.as_rows()

    def test_batches_smaller_than_jobs_match_serial(self):
        from repro.explore.search import CoordinateDescent

        space = DesignSpace(self.SPACE)
        serial_backend, procs_backend = _RecordingSerial(), _RecordingProcesses(5)
        serial = self._explorer(serial_backend).explore(
            space, strategy=CoordinateDescent(objective="energy_uj")
        )
        procs = self._explorer(procs_backend).explore(
            space, strategy=CoordinateDescent(objective="energy_uj")
        )
        assert procs.points == serial.points
        assert procs.evaluations == serial.evaluations
        assert len(serial_backend.points) > 1
        assert max(serial_backend.points) < 5
        # The serial backend evaluates each batch as one group (jobs=1), and
        # every round ships one task per group: min(jobs, len(batch)).
        assert serial_backend.rounds == [1] * len(serial_backend.points)
        assert procs_backend.points == serial_backend.points
        assert procs_backend.rounds == [min(5, n) for n in serial_backend.points]

    def test_round_ships_one_task_per_worker(self):
        backend = _RecordingProcesses(2)
        self._explorer(backend).explore(DesignSpace(self.SPACE))
        assert backend.rounds == [2]

    def test_merged_cache_stats_equal_the_per_group_sums(self):
        from repro.exec import cache_stats_snapshot
        from repro.explore.dse import _contiguous_groups

        space = DesignSpace(self.SPACE)
        with forced_env("REPRO_POOL", "cold"):
            procs = self._explorer("processes", 2).explore(space)
        # Each group of a one-round grid lands on its own fresh worker, so the
        # merged stats are the sum of the groups evaluated on fresh caches.
        expected = {}
        for group in _contiguous_groups(list(space.grid()), 2):
            explorer = self._explorer()
            for overrides in group:
                explorer.evaluate(overrides)
            for stage, counts in cache_stats_snapshot(explorer.cache).items():
                total = expected.setdefault(stage, [0, 0, 0])
                for slot, count in enumerate(counts):
                    total[slot] += count
        merged = {
            stage: [stats.hits, stats.misses, stats.evictions]
            for stage, stats in procs.cache_stats.items()
            if stats.hits or stats.misses or stats.evictions
        }
        expected = {stage: counts for stage, counts in expected.items() if any(counts)}
        assert merged == expected

    def test_worker_killed_mid_group_requeues_the_whole_group(self, tmp_path):
        global _KILL_MARKER
        space = DesignSpace(self.SPACE)
        serial = self._explorer(builder=_build_tempo_or_die).explore(space)
        _KILL_MARKER = str(tmp_path / "killed-once")
        try:
            with forced_env("REPRO_POOL", "cold"):
                procs = self._explorer(
                    "processes", 2, builder=_build_tempo_or_die
                ).explore(space)
        finally:
            marker, _KILL_MARKER = _KILL_MARKER, None
        assert os.path.exists(marker), "no worker reached the 8-high core"
        assert procs.points == serial.points


# -- NaN objectives ---------------------------------------------------------------------


class TestParetoNaN:
    def _point(self, **overrides) -> DesignPoint:
        values = dict(
            parameters={"core_height": 2}, energy_uj=1.0, latency_ns=1.0,
            area_mm2=1.0, power_w=1.0, laser_power_mw=1.0, energy_per_mac_pj=1.0,
        )
        values.update(overrides)
        return DesignPoint(**values)

    def test_nan_objective_raises_naming_the_point(self):
        good = self._point()
        bad = self._point(parameters={"core_height": 8}, latency_ns=math.nan)
        with pytest.raises(ValueError, match=r"core_height=8.*latency_ns"):
            pareto_front([good, bad], ["energy_uj", "latency_ns"])

    def test_nan_in_unused_objective_is_ignored(self):
        point = self._point(latency_ns=math.nan)
        assert pareto_front([point], ["energy_uj"]) == [point]

    def test_non_nan_front_unchanged(self):
        a = self._point(energy_uj=1.0, latency_ns=2.0)
        b = self._point(energy_uj=2.0, latency_ns=1.0)
        c = self._point(energy_uj=3.0, latency_ns=3.0)
        assert pareto_front([a, b, c], ["energy_uj", "latency_ns"]) == [a, b]


# -- CLI argument validation ------------------------------------------------------------


class TestCliBackendValidation:
    @pytest.mark.parametrize("jobs", ["0", "-4", "two"])
    def test_bad_jobs_is_a_clean_usage_error(self, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--jobs", jobs, "--no-store", "fig6_layout"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert "Traceback" not in err

    def test_bad_backend_is_a_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--backend", "cuda", "--no-store", "fig6_layout"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err

    def test_batch_with_process_backend_runs(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "batch", "fig6_layout", "table1_taxonomy",
            "--backend", "processes", "--jobs", "2", "--store", store,
        ]) == 0
        out = capsys.readouterr().out
        assert "backend: processes (2 jobs)" in out
        # Second run warm-starts from the store without spawning workers.
        assert main([
            "batch", "fig6_layout", "table1_taxonomy",
            "--backend", "processes", "--jobs", "2", "--store", store,
        ]) == 0
        out = capsys.readouterr().out
        assert "store hit" in out
        assert "engine passes executed: 0" in out
