"""Zero-copy transport, warm worker pools, and the work-stealing partition.

The contracts under test mirror the dispatch-path design:

- shm object handles are content-addressed, inline below the segment
  threshold, and leak nothing -- not even when a cluster worker is SIGKILLed
  mid-round;
- warm pools reuse worker processes across dispatches, revalidate their
  ``REPRO_*`` snapshot on checkout, reap themselves when idle, and preserve
  the result-store warm start (a second batch runs zero engine passes);
- ``steal_partition`` is a pure function of its arguments whose chunks
  concatenate to ``range(count)``, so completion-driven scheduling stays
  byte-identical to serial no matter which worker drags its feet.
"""

from __future__ import annotations

import glob
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.knobs import forced_env
from repro.exec import (
    ClusterBackend,
    ProcessBackend,
    ShmHandle,
    active_segments,
    as_object,
    coordinator_for,
    pool_status,
    publish_object,
    resolve_object,
    run_worker,
    set_fetch_hook,
    spawn_local_workers,
    steal_partition,
    stop_pools,
    unlink_all,
)
from repro.exec import pool as pool_mod
from repro.exec import shm as shm_mod
from repro.exec.shm import FRAME_ALIGN, INLINE_MAX_BYTES, published_bytes

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


# -- task functions (module-level so subprocess workers can unpickle them) -------------


def _worker_pid(shared, task):
    return os.getpid()


def _slow_square(shared, task):
    # Task 0 is the deliberate straggler: everyone else finishes first, so
    # completion-driven chunk assignment runs in a scrambled order.
    if task == 0:
        time.sleep(0.25)
    return task * task


def _sum_resolved(shared, task):
    array = as_object(shared)
    return float(array.sum()) + task


def _object_view_facts(shared, task):
    """What a worker sees of a resolved object payload's arrays."""
    weights = as_object(shared)["weights"]
    segment = shm_mod._resolve_payload(shared)
    return (
        bool(weights.flags.writeable),
        bool(np.shares_memory(weights, segment)),
        float(weights.sum()) + task,
    )


def _sum_resolved_or_die(shared, task):
    sentinel, value = task
    if sentinel is not None and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return float(as_object(shared).sum()) + value


# -- helpers ---------------------------------------------------------------------------


def _repro_shm_files():
    return sorted(glob.glob("/dev/shm/repro-*"))


@pytest.fixture(autouse=True)
def _clean_slate():
    stop_pools()
    unlink_all()
    yield
    stop_pools()
    unlink_all()


def _thread_workers(coord, count):
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


# -- shm transport ---------------------------------------------------------------------


class TestShmTransport:
    def test_small_payloads_ship_inline(self):
        array = np.arange(64, dtype=np.float64)
        with forced_env("REPRO_SHM", "on"):
            handle = publish_object(array)
        assert isinstance(handle, ShmHandle)
        assert handle.inline is not None and handle.size <= INLINE_MAX_BYTES
        assert active_segments() == []
        np.testing.assert_array_equal(resolve_object(handle), array)

    def test_large_arrays_publish_segments(self):
        array = np.random.default_rng(0).normal(
            size=(INLINE_MAX_BYTES // 8 + 512,)
        )
        with forced_env("REPRO_SHM", "on"):
            handle = publish_object(array)
            assert handle.inline is None and handle.size > INLINE_MAX_BYTES
            assert len(active_segments()) == 1
            resolved = resolve_object(handle)
            np.testing.assert_array_equal(resolved, array)
            assert not resolved.flags.writeable
        del resolved
        unlink_all()
        assert active_segments() == []
        assert _repro_shm_files() == []

    def test_publish_is_content_addressed(self):
        array = np.random.default_rng(1).normal(size=(INLINE_MAX_BYTES // 8 + 16,))
        with forced_env("REPRO_SHM", "on"):
            first = publish_object(array)
            second = publish_object(array.copy())
            assert first.digest == second.digest
            assert len(active_segments()) == 1

    def test_object_round_trip(self):
        payload = {"spec": (1, 2, 3), "label": "alpha"}
        with forced_env("REPRO_SHM", "on"):
            handle = publish_object(payload)
        assert resolve_object(handle) == payload
        assert as_object(handle) == payload
        # Non-handles pass through untouched.
        assert as_object(payload) is payload

    def test_shm_off_inlines_everything(self):
        array = np.zeros(INLINE_MAX_BYTES // 8 + 1024)
        with forced_env("REPRO_SHM", "off"):
            handle = publish_object(array)
        assert handle.inline is not None
        assert active_segments() == []
        np.testing.assert_array_equal(as_object(handle), array)


class TestZeroCopyObjects:
    """Object payloads: protocol-5 out-of-band buffers framed into the segment."""

    @staticmethod
    def _large(seed=5):
        return np.random.default_rng(seed).normal(size=(96, INLINE_MAX_BYTES // 64))

    def test_resolved_arrays_are_read_only_views_of_the_segment(self):
        weights = self._large()
        with forced_env("REPRO_SHM", "on"):
            handle = publish_object({"weights": weights, "label": "w"})
        assert handle.inline is None
        resolved = resolve_object(handle)
        np.testing.assert_array_equal(resolved["weights"], weights)
        assert resolved["label"] == "w"
        assert not resolved["weights"].flags.writeable
        assert np.shares_memory(resolved["weights"], shm_mod._resolve_payload(handle))

    def test_out_of_band_arrays_are_aligned(self):
        with forced_env("REPRO_SHM", "on"):
            handle = publish_object([np.arange(3.0), self._large()])
        for array in resolve_object(handle):
            assert array.ctypes.data % FRAME_ALIGN == 0

    def test_workers_map_instead_of_copy(self):
        """Both worker tiers: forked after the publish (inherited registry)
        and forked before it (a warm fleet attaching the named segment)."""
        weights = self._large(6)
        expected = [(False, True, float(weights.sum()) + task) for task in (0, 1)]
        with forced_env("REPRO_SHM", "on"), forced_env("REPRO_POOL", "warm"):
            backend = ProcessBackend(jobs=2)
            backend.map_tasks(_worker_pid, [0, 1])
            handle = publish_object({"weights": weights})
            attached = backend.map_tasks(_object_view_facts, [0, 1], shared=handle)
            stop_pools()
        with forced_env("REPRO_SHM", "on"), forced_env("REPRO_POOL", "cold"):
            inherited = ProcessBackend(jobs=2).map_tasks(
                _object_view_facts, [0, 1], shared=handle
            )
        assert attached == inherited == expected

    def test_one_flipped_buffer_byte_changes_the_digest(self):
        first, second = self._large(7), self._large(8)
        flipped = second.copy()
        flipped.reshape(-1).view(np.uint8)[12345] ^= 0x01
        with forced_env("REPRO_SHM", "on"):
            original = publish_object({"a": first, "b": second})
            changed = publish_object({"a": first, "b": flipped})
        assert original.digest != changed.digest
        assert original.segment != changed.segment
        np.testing.assert_array_equal(resolve_object(changed)["b"], flipped)

    @pytest.mark.parametrize(
        "build",
        [
            lambda big: np.asfortranarray(big),
            lambda big: big[:, ::3],
            lambda big: {"rows": [list(range(4000)), "x" * 70000], "n": None},
            lambda big: (np.arange(12.0).reshape(3, 4), "small"),
            lambda big: [big, np.asfortranarray(big[:8]), big[::2, 1::5], np.zeros(0)],
        ],
        ids=["f-order", "strided", "array-free", "inline", "mixed"],
    )
    def test_round_trips(self, build):
        payload = build(self._large(9))
        with forced_env("REPRO_SHM", "on"):
            handle = publish_object(payload)
        _assert_same(resolve_object(handle), payload)

    def test_small_objects_ship_inline(self):
        payload = {"weights": np.arange(64.0).reshape(8, 8)}
        with forced_env("REPRO_SHM", "on"):
            handle = publish_object(payload)
        assert handle.inline is not None and active_segments() == []
        resolved = resolve_object(handle)
        _assert_same(resolved, payload)
        assert not resolved["weights"].flags.writeable

    def test_fetch_hook_bytes_decode_through_the_same_framing(self):
        payload = {"weights": np.asfortranarray(self._large(10)), "label": "far"}
        with forced_env("REPRO_SHM", "on"):
            handle = publish_object(payload)
        blob = published_bytes(handle.digest)
        # The publisher is gone: the segment is unlinked and nothing is cached.
        unlink_all()
        set_fetch_hook(lambda digest: blob if digest == handle.digest else None)
        try:
            resolved = resolve_object(handle)
        finally:
            set_fetch_hook(None)
        _assert_same(resolved, payload)
        assert not resolved["weights"].flags.writeable


def _assert_same(actual, expected):
    """Structural equality that also compares arrays element for element."""
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        np.testing.assert_array_equal(actual, expected)
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys()
        for key in expected:
            _assert_same(actual[key], expected[key])
    elif isinstance(expected, (list, tuple)):
        assert type(actual) is type(expected) and len(actual) == len(expected)
        for got, want in zip(actual, expected):
            _assert_same(got, want)
    else:
        assert actual == expected


class TestShmLeaks:
    def test_cluster_worker_sigkill_leaks_no_segments(self, tmp_path):
        """SIGKILLing a worker that attached a segment must leak nothing.

        The parent owns the segment (workers attach untracked), so after the
        round completes on the surviving worker and the parent unlinks, the
        /dev/shm namespace must be spotless -- the exact scenario a crashed
        fleet leaves behind.
        """
        array = np.random.default_rng(2).normal(size=(INLINE_MAX_BYTES // 8 + 256,))
        coord = coordinator_for("127.0.0.1", 0)
        processes = spawn_local_workers(
            2, coord.host, coord.port, env={"PYTHONPATH": TESTS_DIR}
        )
        try:
            coord.wait_for_workers(2, 60)
            with forced_env("REPRO_SHM", "on"):
                handle = publish_object(array)
                backend = ClusterBackend(jobs=2, host=coord.host, port=coord.port)
                sentinel = str(tmp_path / "die-once")
                tasks = [(sentinel if i == 1 else None, i) for i in range(6)]
                results = backend.map_tasks(
                    _sum_resolved_or_die, tasks, shared=handle
                )
            expected = [float(array.sum()) + i for i in range(6)]
            assert results == pytest.approx(expected)
        finally:
            coord.close("shutdown")
            for process in processes:
                try:
                    process.wait(timeout=15)
                except Exception:  # noqa: BLE001 - last resort
                    process.terminate()
                    process.wait(timeout=15)
        unlink_all()
        assert _repro_shm_files() == []


    def test_forked_child_unlinks_what_it_published(self):
        """A child inherits the parent's registry, not its identity: what the
        child publishes is the child's to unlink, and it is named after the
        child's pid."""
        read_end, write_end = os.pipe()
        with forced_env("REPRO_SHM", "on"):
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                code = 1
                try:
                    os.close(read_end)
                    handle = publish_object(np.arange(2e5))
                    os.write(write_end, handle.segment.encode())
                    unlink_all()
                    code = 0
                finally:
                    os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            segment = pipe.read().decode()
        _, status = os.waitpid(pid, 0)
        leaked = os.path.exists(f"/dev/shm/{segment}")
        if leaked:
            os.unlink(f"/dev/shm/{segment}")
        assert os.waitstatus_to_exitcode(status) == 0
        assert segment.startswith(f"repro-{pid}-")
        assert not leaked, f"the child left {segment} in /dev/shm"

    def test_forked_child_keeps_what_it_inherited(self):
        array = np.random.default_rng(11).normal(size=(INLINE_MAX_BYTES // 8 + 64,))
        with forced_env("REPRO_SHM", "on"):
            handle = publish_object(array)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                unlink_all()
                os._exit(0)
        os.waitpid(pid, 0)
        assert os.path.exists(f"/dev/shm/{handle.segment}")
        np.testing.assert_array_equal(resolve_object(handle), array)


class TestForkedWorkers:
    def test_cold_session_leaves_the_parents_resources_alone(self):
        """Forked workers leave through os._exit: none of them may run the
        parent's atexit hooks, which would unlink its shm segments or drain
        the TCP workers of its cluster coordinators."""
        array = np.random.default_rng(4).normal(size=(INLINE_MAX_BYTES // 8 + 256,))
        coord = coordinator_for("127.0.0.1", 0)
        try:
            _thread_workers(coord, 1)
            cluster = ClusterBackend(
                jobs=1, host=coord.host, port=coord.port, wait_s=5.0
            )
            assert cluster.map_tasks(_slow_square, [1, 2]) == [1, 4]
            with forced_env("REPRO_POOL", "cold"), forced_env("REPRO_SHM", "on"):
                handle = publish_object(array)
                backend = ProcessBackend(jobs=2)
                with backend.session():
                    results = backend.map_tasks(_sum_resolved, [0, 1], shared=handle)
            assert results == pytest.approx([float(array.sum()), float(array.sum()) + 1])
            assert os.path.exists(f"/dev/shm/{handle.segment}")
            assert active_segments() == [handle.segment]
            np.testing.assert_array_equal(resolve_object(handle), array)
            # The coordinator's TCP worker was not drained by any child.
            assert cluster.map_tasks(_slow_square, [3, 4]) == [9, 16]
            assert coord.worker_count == 1
        finally:
            coord.close("shutdown")


# -- warm pools ------------------------------------------------------------------------


class TestWarmPool:
    def test_warm_pool_reuses_worker_processes(self):
        with forced_env("REPRO_POOL", "warm"):
            backend = ProcessBackend(jobs=2)
            first = set(backend.map_tasks(_worker_pid, list(range(4))))
            second = set(backend.map_tasks(_worker_pid, list(range(4))))
            # Which of the pool's workers pulls a given chunk is timing
            # dependent, but both dispatches must draw from the same two
            # persistent processes -- a cold path would fork fresh pids.
            assert len(first | second) <= 2, (
                "warm dispatches must reuse the pool's workers"
            )
            status = pool_status()
        assert len(status) == 1
        assert status[0]["dispatches"] >= 2

    def test_cold_mode_keeps_no_resident_pools(self):
        with forced_env("REPRO_POOL", "cold"):
            backend = ProcessBackend(jobs=2)
            backend.map_tasks(_worker_pid, list(range(4)))
            assert pool_status() == []

    def test_env_revalidation_restarts_idle_pool(self):
        with forced_env("REPRO_POOL", "warm"):
            backend = ProcessBackend(jobs=2)
            with forced_env("REPRO_DTYPE", "float64"):
                first = set(backend.map_tasks(_worker_pid, list(range(4))))
            with forced_env("REPRO_DTYPE", "float32"):
                second = set(backend.map_tasks(_worker_pid, list(range(4))))
            status = pool_status()
        assert first.isdisjoint(second), (
            "a REPRO_* snapshot change must restart the pool's workers"
        )
        assert status[0]["restarts"] == 1

    def test_checkout_under_active_lease_gets_private_executor(self):
        with forced_env("REPRO_POOL", "warm"):
            with forced_env("REPRO_DTYPE", "float64"):
                fleet, release = pool_mod.checkout(2)
            with forced_env("REPRO_DTYPE", "float32"):
                private, private_release = pool_mod.checkout(2)
            try:
                assert private is not fleet, (
                    "an env mismatch with an active lease must not restart "
                    "the leased pool"
                )
            finally:
                private_release()
                release()

    def test_fleet_that_lost_a_worker_restarts(self):
        with forced_env("REPRO_POOL", "warm"):
            backend = ProcessBackend(jobs=2)
            first = set(backend.map_tasks(_worker_pid, list(range(4))))
            victim = min(first)
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while pool_mod._POOLS[2].fleet.worker_count == 2:
                assert time.monotonic() < deadline, "the dead worker was never dropped"
                time.sleep(0.02)
            second = set(backend.map_tasks(_worker_pid, list(range(4))))
            status = pool_status()
        assert second.isdisjoint(first), "a degraded fleet must be restarted"
        assert status[0]["restarts"] == 1

    def test_idle_pool_reaps_itself(self):
        with forced_env("REPRO_POOL", "warm"), forced_env(
            "REPRO_POOL_IDLE_S", "0.2"
        ):
            backend = ProcessBackend(jobs=2)
            backend.map_tasks(_worker_pid, list(range(2)))
            assert len(pool_status()) == 1
            deadline = time.monotonic() + 5.0
            while pool_status() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool_status() == []

    def test_stop_pools_tears_everything_down(self):
        with forced_env("REPRO_POOL", "warm"):
            ProcessBackend(jobs=2).map_tasks(_worker_pid, [0])
            assert stop_pools() == 1
            assert pool_status() == []

    def test_second_warm_batch_runs_zero_engine_passes(self, tmp_path):
        from repro.scenarios import BatchRunner, ResultStore

        names = ("table1_taxonomy", "fig6_layout")
        store = ResultStore(tmp_path / "store")
        with forced_env("REPRO_POOL", "warm"):
            first = BatchRunner(store=store, backend="processes", jobs=2).run(names)
            second = BatchRunner(store=store, backend="processes", jobs=2).run(names)
            status = pool_status()
        assert first.ok and second.ok
        # The first batch ran on the warm fleet, the second dispatched nothing.
        assert len(status) == 1 and status[0]["dispatches"] == 1
        assert second.all_from_store
        assert second.engine_passes == 0, (
            "warm pools must preserve the store warm start"
        )


# -- work-stealing partition -----------------------------------------------------------


class TestStealPartition:
    @pytest.mark.parametrize("count", [0, 1, 7, 24, 100])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_chunks_concatenate_to_range(self, count, workers):
        chunks = steal_partition(count, workers)
        flat = [index for chunk in chunks for index in chunk]
        assert flat == list(range(count))

    def test_deterministic_pure_function(self):
        assert steal_partition(100, 3) == steal_partition(100, 3)

    def test_guided_chunks_shrink_toward_the_tail(self):
        sizes = [len(chunk) for chunk in steal_partition(100, 4)]
        assert sizes[0] == max(sizes)
        assert sizes[-1] == min(sizes)
        assert sizes == sorted(sizes, reverse=True)

    def test_single_worker_minimizes_round_trips(self):
        assert steal_partition(24, 1) == [list(range(24))]

    def test_invalid_arguments_fail_loudly(self):
        with pytest.raises(ValueError):
            steal_partition(-1, 2)
        with pytest.raises(ValueError):
            steal_partition(4, 0)


# -- straggler determinism -------------------------------------------------------------


class TestStragglerDeterminism:
    def test_straggler_results_identical_across_backends(self):
        expected = [i * i for i in range(10)]
        serial = [_slow_square(None, task) for task in range(10)]
        with forced_env("REPRO_POOL", "warm"):
            warm = ProcessBackend(jobs=2).map_tasks(_slow_square, list(range(10)))
        coord = coordinator_for("127.0.0.1", 0)
        try:
            _thread_workers(coord, 2)
            backend = ClusterBackend(jobs=2, host=coord.host, port=coord.port)
            cluster = backend.map_tasks(_slow_square, list(range(10)))
        finally:
            coord.close("shutdown")
        assert serial == warm == cluster == expected
