"""One worker loop for every task-shipping backend: coordinator, workers, fleets.

Both backends that ship tasks out of the process run on the scheduler in this
module.  :class:`ClusterBackend` serves workers that connect over TCP from
this host or any other; :class:`ProcessBackend` forks local workers that
speak the same protocol over ``socket.socketpair()``.  Either way one
:class:`ClusterCoordinator` chunks each ``map_tasks`` round, ships the
picklable task encodings with each round's context and requeues the chunks
of a dead worker -- so DSE design-point groups and whole batch scenarios
shard the same way on one machine or many, with zero changes to the
consumers.  Determinism is preserved by construction: tasks are dispatched in
contiguous chunks whose results are reassembled in submission order, and
every task is a pure function of its encoding (Monte Carlo studies inside a
task derive each trial's randomness from ``(seed, trial index)`` alone) -- a
shipped run is byte-identical to a serial one no matter which worker
computed which chunk.

Topology
--------

- A **cluster coordinator** is embedded in the backend: the first
  :class:`ClusterBackend` bound to ``(host, port)`` starts a process-wide
  coordinator with a TCP listener (shared by every later backend instance in
  the process, so one `repro run` with many dispatch rounds reuses one
  worker fleet) that accepts workers and schedules rounds.
- **Cluster workers** are separate processes -- on this host or any other
  that can reach the coordinator -- started with ``repro worker --connect
  HOST:PORT``.  A worker that arrives before the coordinator retries its
  connection; a worker that outlives a coordinator session (the coordinator
  drains on process exit) loops back to reconnect for the next one.
- A **local fleet** (:func:`fork_workers`) is a coordinator without a
  listener: one socketpair per worker, each end handed to a forked child that
  runs the worker loop and leaves through ``os._exit`` (it never runs the
  parent's ``atexit`` hooks).  The process backend's session or lease owns
  the fleet; closing it drains and reaps the children
  (:mod:`repro.exec.pool` keeps warm fleets between dispatches).

Protocol (version-checked at handshake)
---------------------------------------

Frames are ``8-byte big-endian length + pickle``.  The worker opens with
``("hello", info)``; a coordinator speaking a different protocol replies
``("reject", reason)`` and closes, otherwise ``("welcome", options)``.  Each
``map_tasks`` round ships its pickled ``(fn, shared)`` payload once to each
worker that takes one of its chunks (``("context", round, blob)``, which
supersedes every earlier context), then ``("task", round, chunk_id, tasks)``
messages; workers answer ``("result", round, chunk_id, results)`` or
``("error", ...)`` with the remote traceback.  A worker resolving a
:class:`~repro.exec.shm.ShmHandle` it cannot see locally (a cross-host
segment) sends ``("fetch", digest)`` and the coordinator answers ``("blob",
digest, bytes)``; fetched payloads are cached per worker by digest, so each
handle crosses the wire once.  Workers emit unsolicited ``("heartbeat",)``
frames on the cadence the welcome message names.

Fault tolerance
---------------

A worker is declared dead when its socket closes (a killed process) or when
its heartbeats stop for ``dead_after_s`` (a hung one).  Its in-flight chunks
are reassigned to surviving workers -- results are pure functions of the task
encoding, so a re-run is bit-identical -- up to ``max_attempts`` assignments
per chunk, after which the round fails loudly.  Task exceptions are *not*
retried (they are deterministic); they re-raise in the caller as
:class:`ClusterTaskError` carrying the remote traceback.  On shutdown the
coordinator drains gracefully: every connected worker receives ``("drain",)``
and goes back to its reconnect loop (a forked local worker exits) instead of
dying mid-write.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import knobs
from repro.exec.backends import (
    BACKENDS,
    ExecutionBackend,
    TaskFn,
    _validate_jobs,
    default_jobs,
    steal_partition,
)

#: Protocol identifier exchanged at handshake; workers and coordinators with
#: different values refuse each other instead of mis-parsing frames.
#: ``/2`` added worker-side stage totals in result frames and the
#: ``fetch``/``blob`` shared-memory fallback transfer; ``/3`` cached contexts
#: by digest on the workers; ``/4`` dropped that cache (large payloads are
#: already content-addressed by :mod:`repro.exec.shm`) and ships each round's
#: context frame as ``("context", round, blob)``; ``/5`` dropped the stage
#: totals from task and result frames (Monte Carlo studies run in process).
PROTOCOL = "repro-cluster/5"

#: Environment knobs the backend resolves its defaults from, so
#: ``--backend cluster`` / ``--param backend=cluster`` need no code changes.
CLUSTER_HOST_ENV = "REPRO_CLUSTER_HOST"
CLUSTER_PORT_ENV = "REPRO_CLUSTER_PORT"
CLUSTER_WORKERS_ENV = "REPRO_CLUSTER_WORKERS"
CLUSTER_WAIT_ENV = "REPRO_CLUSTER_WAIT_S"

DEFAULT_CLUSTER_HOST = "127.0.0.1"
DEFAULT_CLUSTER_PORT = 7621
DEFAULT_WAIT_S = 60.0
DEFAULT_HEARTBEAT_S = 1.0
DEFAULT_DEAD_AFTER_S = 6.0
DEFAULT_MAX_ATTEMPTS = 3

_HEADER = struct.Struct(">Q")
#: Sanity cap on frame payloads: large enough for any realistic task encoding,
#: small enough that a corrupted length prefix fails loudly instead of
#: attempting a multi-terabyte allocation.
_MAX_FRAME_BYTES = 1 << 33


class ClusterProtocolError(RuntimeError):
    """Handshake or framing violation -- the peer speaks a different protocol."""


class ClusterTaskError(RuntimeError):
    """A task raised on a worker; carries the remote traceback verbatim."""


# -- framing ---------------------------------------------------------------------------


def _enable_nodelay(sock: socket.socket) -> None:
    """Disable Nagle on a cluster socket.

    The protocol is strict request/response with many small frames (task
    handles, fetch requests, heartbeats); leaving Nagle on lets small writes
    queue behind the peer's delayed ACK, adding ~40 ms to every round-trip --
    which dwarfs the work being dispatched once shm handles replace inline
    arrays.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - non-TCP transports (tests, AF_UNIX)
        pass


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``ConnectionError`` on EOF."""
    parts: List[bytes] = []
    remaining = count
    while remaining:
        block = sock.recv(min(remaining, 1 << 20))
        if not block:
            raise ConnectionError("cluster connection closed mid-frame")
        parts.append(block)
        remaining -= len(block)
    return b"".join(parts)


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Pickle ``obj`` and write it as one length-prefixed frame."""
    send_frame_raw(sock, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def send_frame_raw(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Any:
    """Read one length-prefixed frame and unpickle it.

    Raises ``ConnectionError`` on a cleanly closed peer and
    :class:`ClusterProtocolError` on a length prefix no sane frame would carry
    (a corrupted stream or a non-cluster peer).
    """
    header = sock.recv(_HEADER.size)
    if not header:
        raise ConnectionError("cluster connection closed")
    if len(header) < _HEADER.size:
        header += _recv_exact(sock, _HEADER.size - len(header))
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame of {length} bytes exceeds the {_MAX_FRAME_BYTES}-byte cap; "
            "is the peer speaking the repro cluster protocol?"
        )
    return pickle.loads(_recv_exact(sock, int(length)))


def parse_address(text: str) -> Tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)`` with an actionable error on garbage."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"port must be an integer, got {port_text!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"port must be in [1, 65535], got {port}")
    return host, port


# -- coordinator -----------------------------------------------------------------------


class _WorkerConn:
    """Coordinator-side state of one connected worker."""

    _ids = itertools.count(1)

    def __init__(self, sock: socket.socket, addr: Tuple[str, int], info: Dict[str, Any]):
        self.wid = next(_WorkerConn._ids)
        self.sock = sock
        self.addr = addr
        self.info = dict(info)
        self.name = f"{addr[0]}:{addr[1]}#pid{info.get('pid', '?')}"
        self.send_lock = threading.Lock()
        self.last_recv = time.monotonic()
        self.alive = True
        #: The chunk id this worker is currently computing (None = idle).
        self.current: Optional[int] = None
        #: Round ids whose (fn, shared) context payload was already shipped.
        self.contexts_sent: set = set()

    def send(self, obj: Any = None, raw_parts: Optional[Sequence[Any]] = None) -> None:
        if raw_parts is not None:
            # Coalesce every part into one sendall: a dispatch is typically a
            # context frame plus a task frame, and tiny back-to-back writes
            # otherwise become separate TCP segments (and syscalls).
            chunks: List[bytes] = []
            for part_obj, part_raw in raw_parts:
                payload = (
                    part_raw
                    if part_raw is not None
                    else pickle.dumps(part_obj, protocol=pickle.HIGHEST_PROTOCOL)
                )
                chunks.append(_HEADER.pack(len(payload)))
                chunks.append(payload)
            blob = b"".join(chunks)
            with self.send_lock:
                self.sock.sendall(blob)
        else:
            with self.send_lock:
                send_frame(self.sock, obj)


class _Round:
    """One ``map_tasks`` dispatch: chunked tasks, their owners, their results."""

    def __init__(
        self, round_id: int, payload: bytes, chunks: List[List[Any]], max_attempts: int
    ) -> None:
        self.round_id = round_id
        #: ``pickle.dumps(("context", round_id, pickle.dumps((fn, shared))))``
        #: -- the expensive shared payload is pickled once and the whole
        #: context frame reused byte-for-byte for every worker.
        self.payload = payload
        self.chunks = chunks
        self.pending: Deque[int] = deque(range(len(chunks)))
        self.inflight: Dict[int, _WorkerConn] = {}
        self.results: Dict[int, List[Any]] = {}
        self.attempts: Counter = Counter()
        self.error: Optional[BaseException] = None
        self.max_attempts = max_attempts
        self.context_workers: set = set()

    @property
    def finished(self) -> bool:
        return self.error is not None or len(self.results) == len(self.chunks)


class ClusterCoordinator:
    """Accepts workers, schedules task chunks, survives worker loss.

    One coordinator serves arbitrarily many sequential ``map_tasks`` rounds
    (concurrent rounds are serialized on an internal lock); workers persist
    across rounds, keeping their per-process memoized state.  Workers arrive
    through :meth:`attach` -- from the TCP listener :meth:`listen` starts, or
    from :func:`fork_workers` for a local fleet -- and a constructed
    coordinator runs no thread until the first one does.
    """

    def __init__(
        self,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        dead_after_s: float = DEFAULT_DEAD_AFTER_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if heartbeat_s <= 0 or dead_after_s <= 0:
            raise ValueError("heartbeat_s and dead_after_s must be positive")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be positive, got {max_attempts}")
        self.heartbeat_s = float(heartbeat_s)
        self.dead_after_s = float(dead_after_s)
        self.max_attempts = int(max_attempts)
        self._listener: Optional[socket.socket] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        #: Pids of forked local workers, reaped by :meth:`close`.
        self._children: List[int] = []
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: Dict[int, _WorkerConn] = {}
        self._round: Optional[_Round] = None
        self._round_ids = itertools.count(1)
        self._alive = True
        self._map_lock = threading.Lock()

    def listen(self, host: str, port: int) -> None:
        """Accept TCP workers on ``(host, port)``; ``port=0`` picks a free port."""
        self._listener = socket.create_server((host, port), backlog=64)
        self._listener.settimeout(0.2)
        self.host = host
        self.port = int(self._listener.getsockname()[1])
        threading.Thread(
            target=self._accept_loop, name=f"cluster-accept:{self.port}", daemon=True
        ).start()

    def _restart_hint(self) -> str:
        if self._listener is None:
            return "local workers do not come back once they die"
        return f"start workers with: repro worker --connect {self.host}:{self.port}"

    # -- connection handling -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def _accept_loop(self) -> None:
        while self._alive:
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            self.attach(sock, addr)

    def attach(self, sock: socket.socket, addr: Tuple[Any, Any]) -> None:
        """Serve one worker connection: handshake, then read its frames."""
        threading.Thread(
            target=self._serve_connection,
            args=(sock, addr),
            name=f"cluster-worker:{addr[0]}:{addr[1]}",
            daemon=True,
        ).start()

    def _serve_connection(self, sock: socket.socket, addr: Tuple[str, int]) -> None:
        try:
            _enable_nodelay(sock)
            sock.settimeout(10.0)
            frame = recv_frame(sock)
            if not (isinstance(frame, tuple) and len(frame) == 2 and frame[0] == "hello"):
                send_frame(sock, ("reject", "expected a hello frame"))
                sock.close()
                return
            info = dict(frame[1])
            if info.get("protocol") != PROTOCOL:
                send_frame(
                    sock,
                    (
                        "reject",
                        f"protocol mismatch: coordinator speaks {PROTOCOL}, "
                        f"worker speaks {info.get('protocol')!r} -- upgrade the "
                        "older side",
                    ),
                )
                sock.close()
                return
            send_frame(
                sock, ("welcome", {"protocol": PROTOCOL, "heartbeat_s": self.heartbeat_s})
            )
        except (OSError, ConnectionError, ClusterProtocolError, pickle.UnpicklingError,
                EOFError):
            try:
                sock.close()
            except OSError:
                pass
            return
        worker = _WorkerConn(sock, addr, info)
        sock.settimeout(0.5)
        with self._cond:
            if not self._alive:
                self._cond.notify_all()
                try:
                    send_frame(sock, ("drain",))
                    sock.close()
                except OSError:
                    pass
                return
            self._workers[worker.wid] = worker
            self._cond.notify_all()
        self._reader_loop(worker)

    def _reader_loop(self, worker: _WorkerConn) -> None:
        reason = "connection closed"
        try:
            while self._alive and worker.alive:
                try:
                    frame = recv_frame(worker.sock)
                except socket.timeout:
                    continue
                if frame[0] == "fetch":
                    # Serve a shared-memory payload a remote worker cannot map
                    # locally.  Handled outside the condition lock: the send
                    # only needs the worker's own send lock, and a slow blob
                    # write must not stall scheduling.
                    from repro.exec import shm as shm_transport

                    digest = frame[1]
                    try:
                        worker.send(("blob", digest, shm_transport.published_bytes(digest)))
                    except (OSError, socket.timeout) as exc:
                        reason = f"blob send failed: {exc}"
                        return
                    with self._cond:
                        worker.last_recv = time.monotonic()
                    continue
                with self._cond:
                    worker.last_recv = time.monotonic()
                    kind = frame[0]
                    if kind == "heartbeat":
                        continue
                    if kind == "result":
                        _, round_id, chunk_id, results = frame
                        rnd = self._round
                        if (
                            rnd is not None
                            and rnd.round_id == round_id
                            and chunk_id not in rnd.results
                        ):
                            rnd.results[chunk_id] = results
                            rnd.inflight.pop(chunk_id, None)
                        if worker.current == chunk_id:
                            worker.current = None
                        self._cond.notify_all()
                    elif kind == "error":
                        _, round_id, chunk_id, message = frame
                        rnd = self._round
                        if rnd is not None and rnd.round_id == round_id:
                            rnd.inflight.pop(chunk_id, None)
                            rnd.error = ClusterTaskError(
                                f"task chunk {chunk_id} raised on worker "
                                f"{worker.name}:\n{message}"
                            )
                        if worker.current == chunk_id:
                            worker.current = None
                        self._cond.notify_all()
                    else:
                        reason = f"unexpected frame kind {kind!r}"
                        return
        except (OSError, ConnectionError, EOFError, pickle.UnpicklingError,
                ClusterProtocolError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            self._drop_worker(worker, reason)

    def _drop_worker(self, worker: _WorkerConn, reason: str) -> None:
        """Remove a worker and requeue its in-flight chunk for survivors."""
        with self._cond:
            if self._workers.pop(worker.wid, None) is None and not worker.alive:
                # Already dropped (or drained by close()); the reader thread
                # still owns closing the socket.
                try:
                    worker.sock.close()
                except OSError:
                    pass
                return
            worker.alive = False
            if worker.addr[0] == "local":
                # A dropped local worker never rejoins; a hung one would also
                # never exit, so kill it for close() to reap.
                try:
                    os.kill(worker.addr[1], signal.SIGKILL)
                except ProcessLookupError:
                    pass
            rnd = self._round
            if rnd is not None:
                lost = [cid for cid, w in rnd.inflight.items() if w is worker]
                for cid in lost:
                    del rnd.inflight[cid]
                    if cid in rnd.results:
                        continue
                    if rnd.attempts[cid] >= rnd.max_attempts and rnd.error is None:
                        rnd.error = RuntimeError(
                            f"task chunk {cid} was assigned {rnd.attempts[cid]} "
                            f"times and every owner died (last: {worker.name}, "
                            f"{reason}); giving up after max_attempts="
                            f"{rnd.max_attempts}"
                        )
                    else:
                        # Front of the queue: a requeued chunk is older work
                        # than anything still pending.
                        rnd.pending.appendleft(cid)
            self._cond.notify_all()
        try:
            worker.sock.close()
        except OSError:
            pass

    # -- scheduling --------------------------------------------------------------------

    def wait_for_workers(self, count: int, timeout_s: float) -> None:
        """Block until ``count`` workers are connected; actionable error on timeout."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    where = "local worker(s)" if self._listener is None else (
                        f"worker(s) connected to {self.host}:{self.port}"
                    )
                    raise RuntimeError(
                        f"needs {count} {where} but only "
                        f"{len(self._workers)} arrived within {timeout_s:.0f}s; "
                        f"{self._restart_hint()}"
                    )
                self._cond.wait(min(remaining, 0.2))

    def _stale_workers_locked(self) -> List[_WorkerConn]:
        now = time.monotonic()
        return [
            worker
            for worker in self._workers.values()
            if worker.current is not None and now - worker.last_recv > self.dead_after_s
        ]

    def _assign_locked(self, rnd: _Round) -> List[Tuple[_WorkerConn, int]]:
        assignments: List[Tuple[_WorkerConn, int]] = []
        for worker in self._workers.values():
            if not rnd.pending:
                break
            if not worker.alive or worker.current is not None:
                continue
            cid = rnd.pending.popleft()
            rnd.inflight[cid] = worker
            rnd.attempts[cid] += 1
            worker.current = cid
            rnd.context_workers.add(worker)
            assignments.append((worker, cid))
        return assignments

    def map_tasks_chunked(
        self,
        fn: TaskFn,
        shared: Any,
        chunks: List[List[Any]],
        worker_wait_s: float,
        context_payload: Optional[bytes] = None,
    ) -> List[List[Any]]:
        """Run every chunk somewhere and return per-chunk results in chunk order.

        The scheduling is completion-driven (fast workers take more chunks),
        but the *output* is positionally deterministic: chunk ``i``'s results
        always land in slot ``i``.  ``context_payload`` is an optional
        pre-pickled ``(fn, shared)`` blob -- callers that already serialized
        the context (e.g. for a picklability probe) pass it to avoid paying
        for the same pickle twice per round.
        """
        with self._map_lock:
            if not self._alive:
                raise RuntimeError("cluster coordinator is shut down")
            context = (
                context_payload
                if context_payload is not None
                else pickle.dumps((fn, shared), protocol=pickle.HIGHEST_PROTOCOL)
            )
            with self._cond:
                round_id = next(self._round_ids)
                payload = pickle.dumps(
                    ("context", round_id, context), protocol=pickle.HIGHEST_PROTOCOL
                )
                rnd = _Round(round_id, payload, chunks, self.max_attempts)
                self._round = rnd
            no_worker_since: Optional[float] = None
            try:
                while True:
                    with self._cond:
                        if rnd.error is not None:
                            raise rnd.error
                        if rnd.finished:
                            break
                        stale = self._stale_workers_locked()
                        assignments = [] if stale else self._assign_locked(rnd)
                        if self._workers:
                            no_worker_since = None
                        elif rnd.pending or rnd.inflight:
                            now = time.monotonic()
                            if no_worker_since is None:
                                no_worker_since = now
                            elif now - no_worker_since > worker_wait_s:
                                raise RuntimeError(
                                    "every worker disconnected and none "
                                    f"returned within {worker_wait_s:.0f}s; "
                                    f"{len(rnd.results)}/{len(rnd.chunks)} chunks "
                                    f"completed; {self._restart_hint()}"
                                )
                    for worker in stale:
                        self._drop_worker(
                            worker,
                            f"no heartbeat for {self.dead_after_s:.1f}s "
                            "(worker hung or unreachable)",
                        )
                    for worker, cid in assignments:
                        self._dispatch(worker, rnd, cid)
                    if not assignments and not stale:
                        with self._cond:
                            if not rnd.finished:
                                self._cond.wait(0.2)
            finally:
                with self._cond:
                    self._round = None
                # Rounds are serialised by ``_map_lock``, so the next context
                # a worker receives supersedes this one: no frame retires it.
                for worker in list(rnd.context_workers):
                    worker.contexts_sent.discard(rnd.round_id)
            return [rnd.results[i] for i in range(len(chunks))]

    def _dispatch(self, worker: _WorkerConn, rnd: _Round, cid: int) -> None:
        try:
            parts: List[Tuple[Any, Optional[bytes]]] = []
            if rnd.round_id not in worker.contexts_sent:
                parts.append((None, rnd.payload))
                worker.contexts_sent.add(rnd.round_id)
            parts.append(
                (("task", rnd.round_id, cid, rnd.chunks[cid]), None)
            )
            worker.send(raw_parts=parts)
        except (OSError, socket.timeout) as exc:
            self._drop_worker(worker, f"send failed: {exc}")

    # -- shutdown ----------------------------------------------------------------------

    def close(self, kind: str = "drain", wait: bool = True) -> None:
        """Stop accepting, send ``kind`` (``drain``/``shutdown``) to every worker.

        Forked local workers exit on either; ``wait`` reaps them, so their
        resource usage lands in this process's ``RUSAGE_CHILDREN``.
        """
        with self._cond:
            if not self._alive:
                return
            self._alive = False
            workers = list(self._workers.values())
            self._workers.clear()
            self._cond.notify_all()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for worker in workers:
            worker.alive = False
            try:
                worker.send((kind,))
            except OSError:
                pass
            try:
                # FIN, not close: an immediate close() with an unread inbound
                # heartbeat in the kernel buffer turns into a RST that can
                # discard the just-sent drain frame before the worker reads
                # it.  The worker (or this coordinator's reader thread, via
                # _drop_worker) closes the socket after draining.
                worker.sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        _forget_coordinator(self)
        children, self._children = self._children, []
        if wait:
            for pid in children:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass


#: Process-wide coordinators keyed by (host, port): every ClusterBackend bound
#: to the same endpoint shares one worker fleet, so sequential dispatches
#: (each resolving its own backend instance) reuse connected workers.
_COORDINATORS: Dict[Tuple[str, int], ClusterCoordinator] = {}
_COORDINATORS_LOCK = threading.Lock()


def coordinator_for(host: str, port: int, **options: Any) -> ClusterCoordinator:
    """The shared coordinator bound to ``(host, port)``, started on first use.

    ``port=0`` always starts a fresh coordinator on an ephemeral port (the
    chosen port is on the returned instance).  ``options`` apply only when the
    call actually creates the coordinator.
    """
    with _COORDINATORS_LOCK:
        if port != 0:
            existing = _COORDINATORS.get((host, port))
            if existing is not None and existing.alive:
                return existing
        coordinator = ClusterCoordinator(**options)
        coordinator.listen(host, port)
        _COORDINATORS[(host, coordinator.port)] = coordinator
        return coordinator


def _forget_coordinator(coordinator: ClusterCoordinator) -> None:
    with _COORDINATORS_LOCK:
        key = (coordinator.host, coordinator.port)
        if _COORDINATORS.get(key) is coordinator:
            del _COORDINATORS[key]


def shutdown_coordinators(kind: str = "drain") -> None:
    """Close every process-wide coordinator (atexit: drain workers gracefully)."""
    with _COORDINATORS_LOCK:
        coordinators = list(_COORDINATORS.values())
    for coordinator in coordinators:
        coordinator.close(kind)


atexit.register(shutdown_coordinators)


# -- the backends ----------------------------------------------------------------------


class _CoordinatedBackend(ExecutionBackend):
    """The dispatch path every task-shipping backend shares.

    A subclass only says where its workers come from (:meth:`_fleet`); each
    round here does the one pickle probe that doubles as the context payload,
    cuts the tasks with :func:`steal_partition` and runs the chunks through
    :meth:`ClusterCoordinator.map_tasks_chunked`.
    """

    ships_tasks = True

    #: Seconds a round waits for a worker to connect once none is left
    #: (forked local workers never come back).
    _wait_s = 0.0

    def _fleet(self, count: int) -> "contextlib.AbstractContextManager[ClusterCoordinator]":
        """The coordinator whose workers run a round of ``count`` tasks."""
        raise NotImplementedError

    def map_tasks(
        self, fn: TaskFn, tasks: Sequence[Any], shared: Any = None
    ) -> List[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        # The picklability probe doubles as the round's context payload, so
        # the (fn, shared) blob -- the expensive part when shared carries
        # arrays -- is serialized exactly once per round, and before any
        # worker is started for it.
        try:
            context_payload = pickle.dumps(
                (fn, shared), protocol=pickle.HIGHEST_PROTOCOL
            )
            pickle.dumps(tasks[0])
        except Exception as exc:
            raise ValueError(
                f"the {self.name} backend needs picklable tasks: encode specs, "
                "overrides and workload data instead of live engine objects, "
                "and use module-level functions (not lambdas or closures) "
                f"[{type(exc).__name__}: {exc}]"
            ) from exc
        with self._fleet(len(tasks)) as coordinator:
            # Size-tiered chunks feed the completion-driven assignment loop,
            # so fast workers pull more chunks and a straggler (or a
            # death-requeued chunk) strands at most one small tail chunk's
            # worth of work.
            chunks = [
                tasks[bounds[0] : bounds[-1] + 1]
                for bounds in steal_partition(len(tasks), self.jobs)
            ]
            nested = coordinator.map_tasks_chunked(
                fn, shared, chunks,
                worker_wait_s=self._wait_s,
                context_payload=context_payload,
            )
        return [result for chunk in nested for result in chunk]


class ProcessBackend(_CoordinatedBackend):
    """Forked local workers on the cluster scheduler, ordered results.

    A session (or, without one, each ``map_tasks`` call) leases a fleet of
    ``jobs`` forked workers from :mod:`repro.exec.pool`: ``REPRO_POOL=cold``
    forks it for the scope and drains and reaps it afterwards, ``warm`` keeps
    it alive between dispatches.  Results are reassembled in submission
    order, so the output is positionally identical to
    :class:`~repro.exec.backends.SerialBackend`.
    """

    name = "processes"

    def __init__(self, jobs: Optional[int] = None) -> None:
        super().__init__()
        self._jobs = _validate_jobs(jobs) or default_jobs()
        #: The fleet the open session leased, and how to hand it back (both
        #: None outside a session).
        self._pool: Optional[ClusterCoordinator] = None
        self._release: Optional[Callable[[], None]] = None
        self._session_depth = 0
        self._session_lock = threading.Lock()

    @property
    def jobs(self) -> int:
        return self._jobs

    @contextlib.contextmanager
    def session(self):
        """Lease one worker fleet for every round issued inside the scope.

        The workers then keep their memoized state (per-worker caches,
        architecture builds) across rounds instead of paying startup and
        re-pickling per batch.  Sessions nest; the outermost one owns the
        lease.  Without a session every ``map_tasks`` call leases its own
        fleet (forked and reaped under ``REPRO_POOL=cold``, the shared warm
        fleet under ``warm``).
        """
        from repro.exec import pool

        with self._session_lock:
            if self._session_depth == 0:
                self._pool, self._release = pool.lease(self._jobs)
            self._session_depth += 1
        try:
            yield self
        finally:
            with self._session_lock:
                self._session_depth -= 1
                if self._session_depth == 0 and self._pool is not None:
                    release, self._release = self._release, None
                    self._pool = None
                    release()

    @contextlib.contextmanager
    def _fleet(self, count: int) -> Iterator[ClusterCoordinator]:
        if self._pool is not None:
            yield self._pool
            return
        from repro.exec import pool

        fleet, release = pool.lease(self._jobs, limit=count)
        try:
            yield fleet
        finally:
            release()


class ClusterBackend(_CoordinatedBackend):
    """Coordinator-embedded execution over TCP-connected worker processes.

    ``jobs`` is the number of workers the backend *waits for* before
    dispatching (``$REPRO_CLUSTER_WORKERS``, default 1); late joiners are used
    as soon as they connect.  ``host``/``port`` default to
    ``$REPRO_CLUSTER_HOST`` / ``$REPRO_CLUSTER_PORT`` (127.0.0.1:7621), and
    ``port=0`` binds an ephemeral port (useful for tests; read it back from
    :attr:`port` after the coordinator starts).  Like the process backend,
    tasks and the shared context must be picklable, and results keep task
    order -- a cluster run is byte-identical to a serial one.
    """

    name = "cluster"

    def __init__(
        self,
        jobs: Optional[int] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        wait_s: Optional[float] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        dead_after_s: float = DEFAULT_DEAD_AFTER_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        super().__init__()
        env_workers = knobs.raw_value(CLUSTER_WORKERS_ENV)
        self._min_workers = _validate_jobs(jobs) or _validate_jobs(
            int(env_workers) if env_workers else None
        ) or 1
        self._host = host if host is not None else (
            knobs.raw_value(CLUSTER_HOST_ENV) or DEFAULT_CLUSTER_HOST
        )
        if port is None:
            env_port = knobs.raw_value(CLUSTER_PORT_ENV)
            port = int(env_port) if env_port else DEFAULT_CLUSTER_PORT
        self._port = int(port)
        if wait_s is None:
            env_wait = knobs.raw_value(CLUSTER_WAIT_ENV)
            wait_s = float(env_wait) if env_wait else DEFAULT_WAIT_S
        self._wait_s = float(wait_s)
        self._coordinator_options = {
            "heartbeat_s": heartbeat_s,
            "dead_after_s": dead_after_s,
            "max_attempts": max_attempts,
        }
        self._coordinator: Optional[ClusterCoordinator] = None

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._port

    @property
    def jobs(self) -> int:
        """Connected workers (at least the configured minimum).

        Consumers size their sharding on this -- e.g. the explorer's
        design-point groups -- so before the coordinator starts it reports the configured
        minimum, and afterwards the live fleet size.
        """
        coordinator = self._coordinator
        if coordinator is not None and coordinator.alive:
            return max(self._min_workers, coordinator.worker_count)
        return self._min_workers

    def _ensure_coordinator(self) -> ClusterCoordinator:
        coordinator = self._coordinator
        if coordinator is None or not coordinator.alive:
            coordinator = coordinator_for(
                self._host, self._port, **self._coordinator_options
            )
            self._coordinator = coordinator
            self._port = coordinator.port  # resolves port=0 to the bound port
        return coordinator

    @contextlib.contextmanager
    def _fleet(self, count: int) -> Iterator[ClusterCoordinator]:
        coordinator = self._ensure_coordinator()
        coordinator.wait_for_workers(self._min_workers, self._wait_s)
        yield coordinator

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterBackend(jobs={self._min_workers}, "
            f"endpoint={self._host}:{self._port})"
        )


BACKENDS[ProcessBackend.name] = ProcessBackend
BACKENDS[ClusterBackend.name] = ClusterBackend


# -- the worker ------------------------------------------------------------------------


def _log(quiet: bool, message: str) -> None:
    if not quiet:
        print(f"[repro-worker pid={os.getpid()}] {message}", file=sys.stderr)


def _serve_session(sock: socket.socket, quiet: bool) -> str:
    """One coordinator session: handshake, then execute tasks until told to stop.

    Returns ``"drain"`` / ``"shutdown"`` (coordinator said so), ``"lost"``
    (socket died mid-session -- the coordinator process is gone), or
    ``"lost-handshake"`` (the connection dropped before the handshake
    completed, so no session was ever established).  Raises
    :class:`ClusterProtocolError` when the coordinator rejects the handshake.
    """
    send_lock = threading.Lock()
    sock.settimeout(10.0)
    try:
        send_frame(
            sock,
            (
                "hello",
                {
                    "protocol": PROTOCOL,
                    "python": sys.version.split()[0],
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                },
            ),
        )
        reply = recv_frame(sock)
    except (OSError, ConnectionError, EOFError):
        # The coordinator vanished (or reset the connection) mid-handshake;
        # this never became a real session.
        try:
            sock.close()
        except OSError:
            pass
        return "lost-handshake"
    if isinstance(reply, tuple) and reply and reply[0] == "reject":
        raise ClusterProtocolError(f"coordinator rejected this worker: {reply[1]}")
    if not (
        isinstance(reply, tuple)
        and len(reply) == 2
        and reply[0] == "welcome"
        and reply[1].get("protocol") == PROTOCOL
    ):
        raise ClusterProtocolError(f"unexpected handshake reply: {reply!r}")
    heartbeat_s = float(reply[1].get("heartbeat_s", DEFAULT_HEARTBEAT_S))
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_s):
            try:
                with send_lock:
                    send_frame(sock, ("heartbeat",))
            except OSError:
                return

    threading.Thread(target=beat, name="cluster-heartbeat", daemon=True).start()
    from repro.exec import shm as shm_transport

    contexts: Dict[int, Tuple[TaskFn, Any]] = {}
    #: Frames that arrived while a blob fetch was waiting for its reply; the
    #: main loop drains them before reading the socket again.
    deferred: Deque[Any] = deque()

    def fetch_blob(digest: str) -> Optional[bytes]:
        """Pull a shared-memory payload the coordinator published.

        Runs inside task execution (the recv loop's own thread), so reading
        the socket here is safe -- only the heartbeat thread sends
        concurrently, and it never reads.  Non-blob frames that interleave
        are deferred, not dropped.
        """
        with send_lock:
            send_frame(sock, ("fetch", digest))
        while True:
            frame = recv_frame(sock)
            if frame[0] == "blob" and frame[1] == digest:
                return frame[2]
            deferred.append(frame)

    shm_transport.set_fetch_hook(fetch_blob)
    sock.settimeout(None)
    try:
        while True:
            frame = deferred.popleft() if deferred else recv_frame(sock)
            kind = frame[0]
            if kind == "context":
                _, round_id, blob = frame
                # Rounds are serialised on the coordinator, so a fresh
                # context supersedes every earlier one.
                contexts = {round_id: pickle.loads(blob)}
            elif kind == "task":
                _, round_id, chunk_id, chunk = frame
                try:
                    fn, shared = contexts[round_id]
                    results = [fn(shared, task) for task in chunk]
                    payload = pickle.dumps(
                        ("result", round_id, chunk_id, results),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                except BaseException:  # noqa: BLE001 - shipped back verbatim
                    payload = pickle.dumps(
                        ("error", round_id, chunk_id, traceback.format_exc()),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                with send_lock:
                    send_frame_raw(sock, payload)
            elif kind in ("drain", "shutdown"):
                return kind
            else:
                raise ClusterProtocolError(f"unexpected frame kind {kind!r}")
    except (OSError, ConnectionError, EOFError):
        return "lost"
    finally:
        shm_transport.set_fetch_hook(None)
        stop.set()
        try:
            sock.close()
        except OSError:
            pass


def run_worker(
    host: str,
    port: int,
    once: bool = False,
    retry_s: float = 0.2,
    connect_timeout_s: float = 30.0,
    quiet: bool = False,
) -> int:
    """The ``repro worker`` main loop: connect, serve, reconnect.

    The worker retries its connection for up to ``connect_timeout_s`` (so it
    may be started before any coordinator exists), serves one coordinator
    session, and -- unless told ``shutdown`` or started with ``once`` -- loops
    back to reconnect for the next coordinator (each gets a fresh retry
    budget).  Exit status: 0 after a graceful stop or after having served at
    least one session, 1 when no coordinator ever appeared or the handshake
    was rejected.
    """
    sessions = 0
    while True:
        sock: Optional[socket.socket] = None
        deadline = time.monotonic() + connect_timeout_s
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=2.0)
                _enable_nodelay(sock)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    break
                time.sleep(retry_s)
        if sock is None:
            _log(
                quiet,
                f"no coordinator at {host}:{port} within {connect_timeout_s:.0f}s; "
                "exiting",
            )
            return 0 if sessions else 1
        try:
            _log(quiet, f"connected to {host}:{port}")
            outcome = _serve_session(sock, quiet)
        except ClusterProtocolError as exc:
            _log(False, str(exc))
            return 1
        if outcome != "lost-handshake":
            sessions += 1
        _log(quiet, f"session ended ({outcome})")
        if outcome == "shutdown" or (once and outcome != "lost-handshake"):
            return 0


def fork_workers(count: int) -> ClusterCoordinator:
    """A listener-less coordinator serving ``count`` forked local workers.

    Each worker gets one end of a ``socket.socketpair()`` and runs
    :func:`_serve_session` on it; the parent hands the other end to the
    coordinator through the same handshake a TCP worker performs.  Every
    child is forked before any of the coordinator's threads start, and
    :meth:`ClusterCoordinator.close` drains and reaps them.
    """
    coordinator = ClusterCoordinator()
    # Unflushed parent output would otherwise be written again by each child.
    sys.stdout.flush()
    sys.stderr.flush()
    ends: List[Tuple[socket.socket, int]] = []
    try:
        for _ in range(count):
            parent_end, child_end = socket.socketpair()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                _run_forked_worker(child_end, parent_end)
            child_end.close()
            coordinator._children.append(pid)
            ends.append((parent_end, pid))
        for parent_end, pid in ends:
            coordinator.attach(parent_end, ("local", pid))
        coordinator.wait_for_workers(count, DEFAULT_WAIT_S)
    except BaseException:
        # EOF ends every child, handshaken or not, so close() can reap them.
        for parent_end, _pid in ends:
            try:
                parent_end.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        coordinator.close("shutdown")
        raise
    return coordinator


def _run_forked_worker(sock: socket.socket, parent_end: socket.socket) -> None:
    """A forked child's whole life: serve one session, then ``os._exit``.

    Leaving through ``os._exit`` skips the ``atexit`` hooks inherited from the
    parent -- shm ``unlink_all``, the coordinator drain, ``stop_pools`` --
    which would otherwise act on the parent's resources.
    """
    code = 1
    try:
        # Holding its own pair's other end would hide the parent's death.
        parent_end.close()
        _serve_session(sock, quiet=True)
        code = 0
    except BaseException:  # noqa: BLE001 - reported, then the child exits
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def spawn_local_workers(
    count: int,
    host: str,
    port: int,
    env: Optional[Dict[str, str]] = None,
    extra_args: Sequence[str] = (),
) -> List[subprocess.Popen]:
    """Start ``count`` localhost worker processes (tests, benchmarks, demos).

    Each runs ``python -m repro worker --connect host:port`` with ``repro``'s
    source root prepended to ``PYTHONPATH`` so uninstalled checkouts work; the
    caller owns the returned processes (terminate them when done).
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    merged = dict(os.environ)
    if env:
        merged.update(env)
    merged["PYTHONPATH"] = src_root + os.pathsep + merged.get("PYTHONPATH", "")
    command = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--connect",
        f"{host}:{port}",
        *extra_args,
    ]
    return [subprocess.Popen(command, env=merged) for _ in range(count)]
