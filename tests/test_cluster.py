"""The cluster coordinator/worker backend: protocol, fault tolerance, determinism.

The contract under test: a ``--backend cluster`` run is byte-identical to a
serial run (same task encodings, deterministic chunk reassembly, per-trial
seed contracts), survives worker death mid-round by reassigning in-flight
chunks to survivors, and never depends on the *worker's* environment -- task
encodings carry the parent's mode snapshot, and a Monte Carlo trial chunk
pins the dtype mode its study resolved.
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.arch.templates import build_tempo
from repro.exec import resolve_backend
from repro.exec.cluster import (
    PROTOCOL,
    ClusterBackend,
    ClusterTaskError,
    ProcessBackend,
    coordinator_for,
    parse_address,
    recv_frame,
    run_worker,
    send_frame,
    spawn_local_workers,
)
from repro.explore import DesignSpace, DesignSpaceExplorer
from repro.onn.layers import dtype_mode, pinned_modes
from repro.onn.models import build_mlp
from repro.onn.workload import extract_workloads
from repro.scenarios import REGISTRY, BatchRunner
from repro.variation import (
    AccuracyRequest,
    reference_forward,
    standard_noise,
)
from repro.variation.montecarlo import _run_trial_chunk, _TrialContext

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


# -- task functions (module-level so subprocess workers can unpickle them) -------------


def _square(shared, task):
    return (shared or 0) + task * task


def _boom(shared, task):
    if task == 5:
        raise ValueError("task five exploded")
    return task


def _die_once(shared, task):
    """Kill this worker the first time the flagged task runs.

    The sentinel file makes the suicide one-shot: the reassigned attempt on a
    surviving worker sees the file and completes normally, so the final result
    list is still a pure function of the task encoding.
    """
    sentinel, value = task
    if sentinel is not None and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 3


# -- helpers ---------------------------------------------------------------------------


@pytest.fixture()
def coordinator():
    coord = coordinator_for("127.0.0.1", 0)
    yield coord
    coord.close("shutdown")


def _thread_workers(coord, count):
    """In-process workers speaking the real TCP protocol (fast; no numpy import)."""
    threads = [
        threading.Thread(
            target=run_worker,
            args=(coord.host, coord.port),
            kwargs=dict(once=True, quiet=True),
            daemon=True,
        )
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


def _spawn(coord, count, extra_env=None):
    env = {"PYTHONPATH": TESTS_DIR}
    if extra_env:
        env.update(extra_env)
    return spawn_local_workers(count, coord.host, coord.port, env=env)


def _reap(coord, processes):
    coord.close("shutdown")
    for process in processes:
        try:
            process.wait(timeout=15)
        except Exception:  # noqa: BLE001 - last resort
            process.terminate()
            process.wait(timeout=15)


def _backend(coord, jobs=2, wait_s=60.0):
    return ClusterBackend(jobs=jobs, host=coord.host, port=coord.port, wait_s=wait_s)


# -- protocol & scheduling (in-thread workers) -----------------------------------------


class TestClusterProtocol:
    def test_map_tasks_preserves_task_order(self, coordinator):
        _thread_workers(coordinator, 2)
        backend = _backend(coordinator)
        results = backend.map_tasks(_square, list(range(23)), shared=100)
        assert results == [100 + i * i for i in range(23)]

    def test_empty_task_list(self, coordinator):
        assert _backend(coordinator).map_tasks(_square, []) == []

    def test_task_errors_carry_the_remote_traceback(self, coordinator):
        _thread_workers(coordinator, 1)
        backend = _backend(coordinator, jobs=1)
        with pytest.raises(ClusterTaskError, match="task five exploded"):
            backend.map_tasks(_boom, list(range(8)))
        # The worker survives a task error: the next round still works.
        assert backend.map_tasks(_square, [1, 2, 3]) == [1, 4, 9]

    def test_rounds_reuse_connected_workers(self, coordinator):
        _thread_workers(coordinator, 2)
        backend = _backend(coordinator)
        for _ in range(3):
            assert backend.map_tasks(_square, list(range(9))) == [
                i * i for i in range(9)
            ]
        assert coordinator.worker_count == 2

    def test_unpicklable_tasks_fail_fast(self, coordinator):
        backend = _backend(coordinator)
        with pytest.raises(ValueError, match="picklable"):
            backend.map_tasks(lambda shared, task: task, [1, 2])

    def test_handshake_rejects_protocol_mismatch(self, coordinator):
        assert PROTOCOL == "repro-cluster/5"
        # /3 workers expect the retired context cache; a future version is
        # just as foreign.
        for version in ("repro-cluster/4", "repro-cluster/999"):
            sock = socket.create_connection(
                (coordinator.host, coordinator.port), timeout=5
            )
            try:
                send_frame(sock, ("hello", {"protocol": version, "pid": 1}))
                reply = recv_frame(sock)
            finally:
                sock.close()
            assert reply[0] == "reject"
            assert "protocol mismatch" in reply[1]
            assert PROTOCOL in reply[1]
            assert version in reply[1]

    def test_wait_for_workers_timeout_names_the_cli(self, coordinator):
        with pytest.raises(RuntimeError, match="repro worker --connect"):
            coordinator.wait_for_workers(1, timeout_s=0.2)

    def test_backend_registry_and_address_parsing(self):
        backend = resolve_backend("cluster", jobs=3)
        assert isinstance(backend, ClusterBackend)
        assert backend.jobs == 3
        assert parse_address("node7:7621") == ("node7", 7621)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("7621")
        with pytest.raises(ValueError, match="integer"):
            parse_address("host:http")
        with pytest.raises(ValueError, match=r"\[1, 65535\]"):
            parse_address("host:99999")

    def test_worker_exits_zero_after_drain_and_one_without_coordinator(self):
        coord = coordinator_for("127.0.0.1", 0)
        outcome = {}

        def serve():
            outcome["rc"] = run_worker(
                coord.host, coord.port, retry_s=0.05,
                connect_timeout_s=0.5, quiet=True,
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        coord.wait_for_workers(1, 10.0)
        coord.close("drain")
        thread.join(timeout=10)
        assert outcome["rc"] == 0  # served one session, then no coordinator
        # A worker that never finds a coordinator reports failure.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        assert run_worker(
            "127.0.0.1", free_port, retry_s=0.05, connect_timeout_s=0.3, quiet=True
        ) == 1


# -- fault tolerance (subprocess workers) ----------------------------------------------


class TestClusterFaultTolerance:
    def test_killed_worker_mid_round_reassigns_its_chunks(self, tmp_path):
        coord = coordinator_for("127.0.0.1", 0)
        processes = _spawn(coord, 2)
        try:
            coord.wait_for_workers(2, 60.0)
            sentinel = str(tmp_path / "died")
            tasks = [(sentinel if i == 4 else None, i) for i in range(12)]
            results = _backend(coord).map_tasks(_die_once, tasks)
            assert results == [i * 3 for i in range(12)]
            assert os.path.exists(sentinel)  # the suicide actually happened
            assert coord.worker_count == 1  # and the victim is gone
            # The surviving fleet still serves later rounds.
            follow_up = _backend(coord, jobs=1).map_tasks(_square, [2, 3])
            assert follow_up == [4, 9]
        finally:
            _reap(coord, processes)


# -- end-to-end determinism (subprocess workers) ---------------------------------------


@pytest.fixture(scope="module")
def mc_model():
    return build_mlp((12, 16, 5), rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def mc_inputs():
    return np.random.default_rng(9).normal(size=(16, 12))


class TestClusterDeterminism:
    def test_accuracy_points_match_serial(self, mc_model, mc_inputs):
        """Cluster workers run each design-point group's Monte Carlo study in
        process and record the serial accuracy, bit for bit."""
        workloads = extract_workloads(mc_model, mc_inputs)
        space = DesignSpace({"input_bits": (4, 6, 8)})
        request = AccuracyRequest(
            mc_model, mc_inputs, noise=standard_noise(), trials=12, seed=7
        )

        def sweep(backend):
            explorer = DesignSpaceExplorer(build_tempo, workloads, accuracy=request)
            return explorer.explore(space, backend=backend)

        serial = sweep(None)
        coord = coordinator_for("127.0.0.1", 0)
        processes = _spawn(coord, 2)
        try:
            coord.wait_for_workers(2, 60.0)
            clustered = sweep(_backend(coord))
        finally:
            _reap(coord, processes)
        assert clustered.backend == "cluster"
        assert all(point.accuracy is not None for point in clustered.points)
        assert clustered.points == serial.points

    def test_batch_tables_and_pass_counts_match_serial(self):
        names = ["fig6_layout", "table1_taxonomy", "variation_robustness"]
        serial_report = BatchRunner(store=None).run(names)
        coord = coordinator_for("127.0.0.1", 0)
        processes = _spawn(coord, 2)
        try:
            coord.wait_for_workers(2, 60.0)
            cluster_report = BatchRunner(store=None, backend=_backend(coord)).run(names)
        finally:
            _reap(coord, processes)
        assert cluster_report.ok
        for serial_item, cluster_item in zip(serial_report.items, cluster_report.items):
            assert cluster_item.name == serial_item.name
            assert cluster_item.result.table == serial_item.result.table
        assert cluster_report.engine_passes == serial_report.engine_passes
        assert cluster_report.backend == "cluster"
        # Worker telemetry merged back exactly as the process backend does.
        assert cluster_report.pass_timings
        assert cluster_report.cache_stats


# -- mode pinning (the env-propagation satellite) --------------------------------------


def _trial_context(model, inputs, **overrides):
    spec = standard_noise()
    reference = reference_forward(
        model, inputs, input_bits=8, weight_bits=8, output_bits=8,
        effective_bits=math.inf,
    )
    fields = dict(
        model=model,
        inputs=np.asarray(inputs, dtype=float),
        reference=reference,
        spec=spec,
        input_bits=8,
        weight_bits=8,
        output_bits=8,
        seed=7,
        link=None,
        dtype_mode="float64",
    )
    fields.update(overrides)
    return _TrialContext(**fields)


def _same_chunk_results(left, right):
    """Whether two ``_run_trial_chunk`` results hold equal arrays field by field."""
    return len(left) == len(right) and all(
        np.array_equal(a, b) for a, b in zip(left, right)
    )


class TestModePinning:
    def test_pinned_modes_override_and_restore(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float64")
        with pinned_modes("float32"):
            assert dtype_mode() == "float32"
            with pinned_modes(dtype="float64"):  # nested pin
                assert dtype_mode() == "float64"
                with pinned_modes():  # no pin: the outer pin stays
                    assert dtype_mode() == "float64"
            assert dtype_mode() == "float32"
        assert dtype_mode() == "float64"

    def test_invalid_pins_fail_loudly(self):
        with pytest.raises(ValueError, match="dtype mode"):
            with pinned_modes(dtype="float16"):
                pass

    def test_trial_results_ignore_parent_env_flips_after_encoding(
        self, mc_model, mc_inputs, monkeypatch
    ):
        context = _trial_context(mc_model, mc_inputs)
        baseline = _run_trial_chunk(context, list(range(6)))
        # Sanity: the pinned dtype really is load-bearing -- a context encoded
        # in float32 mode must NOT reproduce the float64 baseline.
        flipped_context = dataclasses.replace(context, dtype_mode="float32")
        assert not _same_chunk_results(
            _run_trial_chunk(flipped_context, list(range(6))), baseline
        )
        # Flip the parent environment AFTER encoding: results must not move.
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        assert _same_chunk_results(_run_trial_chunk(context, list(range(6))), baseline)

    def test_process_workers_ignore_their_inherited_env(
        self, mc_model, mc_inputs, monkeypatch
    ):
        """Encode trial chunks, flip the parent env, run them in real worker
        processes (which inherit the flipped env, as a process-backend
        design-point group does), and require bit-identical results."""
        context = _trial_context(mc_model, mc_inputs)
        chunks = [list(range(3)), list(range(3, 6))]
        baseline = [_run_trial_chunk(context, chunk) for chunk in chunks]
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        nested = ProcessBackend(jobs=2).map_tasks(
            _run_trial_chunk, chunks, shared=context
        )
        assert len(nested) == len(baseline)
        for shipped, local in zip(nested, baseline):
            assert _same_chunk_results(shipped, local)
