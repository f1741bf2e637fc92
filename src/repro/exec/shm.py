"""Content-addressed shared-memory transport for bulky task payloads.

Task-shipping backends (:class:`~repro.exec.cluster.ProcessBackend`,
:class:`~repro.exec.cluster.ClusterBackend`) historically pickled the whole
shared context -- model weights, input tensors, Philox slabs -- into every
chunk's dispatch.  This module is the zero-copy alternative: a payload is
*published* once per host into a ``multiprocessing.shared_memory`` segment and
the task encoding carries a small :class:`ShmHandle` (digest + segment name +
shape/dtype) instead of megabytes of pickled array bytes.  Consumers resolve
handles back to arrays (or unpickled objects) on the worker; resolution is
content-addressed, so a handle republished by a later study with identical
bytes maps onto the worker's existing attachment -- and, for object payloads,
onto the *already unpickled* object, which is what makes warm pools start
warm.

Three resolution tiers, tried in order:

1. **publisher / fork child** -- the digest is in this process's registry (the
   publishing process, or a worker forked after publication): return the
   existing zero-copy view;
2. **same-host attach** -- open the named segment read-only.  Python 3.11's
   ``SharedMemory`` has no ``track=False``, and an attach registers the
   segment with the attaching process's ``resource_tracker``, which would
   *unlink it for everyone* when the worker exits; the attach path therefore
   unregisters the segment immediately (the publisher owns the unlink);
3. **framed fetch** -- a cross-host cluster worker cannot see the publisher's
   ``/dev/shm``; a registered fetch hook (the cluster worker installs one
   speaking ``("fetch", digest)`` / ``("blob", ...)`` frames) pulls the bytes
   once and caches them under the same digest for every later handle.

Handles degrade gracefully: payloads below :data:`INLINE_MAX_BYTES`, publishes
under ``REPRO_SHM=off``, and platforms without shared memory all fall back to
carrying the bytes inline in the handle -- resolution is identical either way,
so consumers never branch on the transport.

Publishing is idempotent per digest and the publisher owns segment lifetime:
:func:`unlink_all` (registered ``atexit``) closes and unlinks everything this
process created.  Forked children inherit the registry but not ownership --
a pid guard keeps a child's cleanup from destroying the parent's segments.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import knobs

#: Payloads at or below this many bytes ship inline in the handle: a pickle of
#: this size costs less than a segment create + attach round-trip.
INLINE_MAX_BYTES = 1 << 16


def shm_enabled() -> bool:
    """Whether publishes may create shared-memory segments (``REPRO_SHM``)."""
    return knobs.value("REPRO_SHM") == "on"


@dataclass(frozen=True)
class ShmHandle:
    """The blessed picklable reference to a published payload.

    This is the *only* shared-memory object allowed inside task encodings
    (lint rule R004 flags raw ``SharedMemory`` objects in ``*Context`` /
    ``*Task`` classes): it carries no live OS resource, pickles to ~100 bytes,
    and resolves on any host -- via the named segment when visible, the
    per-worker fetch cache otherwise, or the ``inline`` bytes it was published
    with.
    """

    digest: str
    kind: str  # "array" | "object"
    shape: Tuple[int, ...]
    dtype: str
    segment: Optional[str] = None
    inline: Optional[bytes] = None

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


@dataclass
class _Registry:
    """Process-local shm state; ``owner_pid`` guards fork-inherited copies."""

    owner_pid: int = field(default_factory=os.getpid)
    #: digest -> (SharedMemory, handle, read-only view) for segments this
    #: process created (or inherited mappings of, after a fork).
    published: Dict[str, Tuple[Any, ShmHandle, np.ndarray]] = field(default_factory=dict)
    #: digest -> (SharedMemory, read-only view) for same-host attachments.
    attached: Dict[str, Tuple[Any, np.ndarray]] = field(default_factory=dict)
    #: digest -> raw bytes pulled through the fetch hook (cross-host workers).
    fetched: Dict[str, bytes] = field(default_factory=dict)
    #: digest -> unpickled object (one unpickle per worker per digest).
    objects: Dict[str, Any] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)


_REGISTRY = _Registry()
_FETCH_HOOK: Optional[Callable[[str], Optional[bytes]]] = None

#: Segments whose mapping could not be closed because live numpy views still
#: export the buffer.  Holding them here keeps ``SharedMemory.__del__`` from
#: re-raising (and printing) the same ``BufferError`` at garbage collection;
#: the segment *name* is already unlinked, so nothing leaks in ``/dev/shm``.
_RETIRED: List[Any] = []
_RETIRED_LOCK = threading.Lock()


def _close_quietly(segment: Any) -> None:
    try:
        segment.close()
    except BufferError:
        with _RETIRED_LOCK:
            _RETIRED.append(segment)
    except OSError:
        pass


def _digest_of(data: bytes, shape: Tuple[int, ...], dtype: str, kind: str) -> str:
    hasher = hashlib.sha1()
    hasher.update(f"{kind}|{dtype}|{shape}|".encode("utf-8"))
    hasher.update(data)
    return hasher.hexdigest()


def _segment_name(digest: str) -> str:
    # The publisher pid namespaces the name so two concurrent processes
    # publishing the same content never race on one segment; the digest tail
    # makes leaks attributable (`ls /dev/shm/repro-*`).
    return f"repro-{_REGISTRY.owner_pid}-{digest[:16]}"


def _view(buffer, shape: Tuple[int, ...], dtype: str, nbytes: int) -> np.ndarray:
    array = np.frombuffer(buffer, dtype=np.dtype(dtype), count=-1, offset=0)
    array = array[: nbytes // np.dtype(dtype).itemsize].reshape(shape)
    array.flags.writeable = False
    return array


def _attach_untracked(name: str):
    """Open an existing segment without adopting its lifetime.

    Attaching registers the segment with this process's ``resource_tracker``
    (Python < 3.13 has no opt-out), which would unlink it when *this* process
    exits even though the publisher still serves it to other workers -- so the
    registration is reverted immediately after the attach.
    """
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(segment._name, "shared_memory")  # noqa: SLF001
    except Exception:  # pragma: no cover - tracker variations across versions
        pass
    return segment


# -- publishing ------------------------------------------------------------------------


def publish_array(array: np.ndarray) -> ShmHandle:
    """Publish an array once and return its content-addressed handle.

    Idempotent per content: republishing identical bytes returns the existing
    handle.  Small arrays, ``REPRO_SHM=off`` and shm-less platforms fall back
    to an inline handle (same digest, same resolution path).
    """
    array = np.ascontiguousarray(array)
    data = array.tobytes()
    return _publish(data, tuple(array.shape), str(array.dtype), "array")


def publish_object(obj: Any) -> ShmHandle:
    """Pickle ``obj`` and publish the bytes (``kind="object"``).

    The digest addresses the pickle bytes, so workers that already resolved an
    identical payload reuse their cached *unpickled* object -- repeated studies
    on a warm pool skip both the transfer and the unpickle.
    """
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _publish(data, (len(data),), "uint8", "object")


def _publish(data: bytes, shape: Tuple[int, ...], dtype: str, kind: str) -> ShmHandle:
    digest = _digest_of(data, shape, dtype, kind)
    with _REGISTRY.lock:
        entry = _REGISTRY.published.get(digest)
        if entry is not None:
            return entry[1]
    if len(data) <= INLINE_MAX_BYTES or not shm_enabled():
        return ShmHandle(
            digest=digest, kind=kind, shape=shape, dtype=dtype, inline=data
        )
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(
            create=True, size=len(data), name=_segment_name(digest)
        )
    except FileExistsError:
        # Same digest re-published after the registry was cleared mid-process:
        # adopt the existing segment (contents are by construction identical).
        segment = _attach_untracked(_segment_name(digest))
    except (OSError, ImportError, ValueError):  # pragma: no cover - no shm
        return ShmHandle(
            digest=digest, kind=kind, shape=shape, dtype=dtype, inline=data
        )
    segment.buf[: len(data)] = data
    handle = ShmHandle(
        digest=digest, kind=kind, shape=shape, dtype=dtype, segment=segment.name
    )
    view = _view(segment.buf, shape, dtype, len(data))
    with _REGISTRY.lock:
        raced = _REGISTRY.published.get(digest)
        if raced is not None:
            # Lost a publish race within this process; keep the first segment.
            _close_quietly(segment)
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass
            return raced[1]
        _REGISTRY.published[digest] = (segment, handle, view)
    return handle


# -- resolution ------------------------------------------------------------------------


def set_fetch_hook(hook: Optional[Callable[[str], Optional[bytes]]]) -> None:
    """Install the cross-host fallback: ``hook(digest) -> bytes`` or ``None``.

    Cluster workers install a hook that asks the coordinator for the payload
    over the task socket; fetched bytes are cached per digest so each worker
    pays the transfer once no matter how many rounds reference the handle.
    """
    global _FETCH_HOOK
    _FETCH_HOOK = hook


def resolve_array(handle: ShmHandle) -> np.ndarray:
    """The published array for ``handle`` (read-only; zero-copy when local)."""
    if handle.inline is not None:
        return _view(handle.inline, handle.shape, handle.dtype, len(handle.inline))
    with _REGISTRY.lock:
        entry = _REGISTRY.published.get(handle.digest)
        if entry is not None:
            return entry[2]
        attached = _REGISTRY.attached.get(handle.digest)
        if attached is not None:
            return attached[1]
        data = _REGISTRY.fetched.get(handle.digest)
    if data is not None:
        return _view(data, handle.shape, handle.dtype, len(data))
    if handle.segment is not None:
        try:
            segment = _attach_untracked(handle.segment)
        except (FileNotFoundError, OSError):
            segment = None
        if segment is not None:
            view = _view(segment.buf, handle.shape, handle.dtype, handle.nbytes)
            with _REGISTRY.lock:
                raced = _REGISTRY.attached.get(handle.digest)
                if raced is not None:
                    segment.close()
                    return raced[1]
                _REGISTRY.attached[handle.digest] = (segment, view)
            return view
    hook = _FETCH_HOOK
    if hook is not None:
        data = hook(handle.digest)
        if data is not None:
            with _REGISTRY.lock:
                _REGISTRY.fetched.setdefault(handle.digest, data)
            return _view(data, handle.shape, handle.dtype, len(data))
    raise RuntimeError(
        f"cannot resolve shm handle {handle.digest[:12]} (segment "
        f"{handle.segment!r}): the publishing process is gone or unreachable "
        "and no fetch hook is installed"
    )


def resolve_object(handle: ShmHandle) -> Any:
    """Unpickle an object payload once per process and return the cached object."""
    with _REGISTRY.lock:
        if handle.digest in _REGISTRY.objects:
            return _REGISTRY.objects[handle.digest]
    data = resolve_array(handle)
    obj = pickle.loads(data.tobytes())
    with _REGISTRY.lock:
        return _REGISTRY.objects.setdefault(handle.digest, obj)


def as_array(value: Any) -> Any:
    """``value`` with :class:`ShmHandle` instances resolved to arrays."""
    return resolve_array(value) if isinstance(value, ShmHandle) else value


def as_object(value: Any) -> Any:
    """``value`` with :class:`ShmHandle` instances resolved to objects."""
    return resolve_object(value) if isinstance(value, ShmHandle) else value


def published_bytes(digest: str) -> Optional[bytes]:
    """The raw bytes behind a digest this process can serve (fetch-hook server)."""
    with _REGISTRY.lock:
        entry = _REGISTRY.published.get(digest)
        if entry is not None:
            return entry[2].tobytes()
        data = _REGISTRY.fetched.get(digest)
        if data is not None:
            return data
        attached = _REGISTRY.attached.get(digest)
        if attached is not None:
            return attached[1].tobytes()
    return None


# -- lifecycle -------------------------------------------------------------------------


def active_segments() -> List[str]:
    """Names of the segments this process currently holds open (leak checks)."""
    with _REGISTRY.lock:
        names = [entry[0].name for entry in _REGISTRY.published.values()]
        names += [segment.name for segment, _ in _REGISTRY.attached.values()]
    return sorted(names)


def unlink_all() -> None:
    """Close every mapping and unlink the segments this process *created*.

    Safe after a fork: a child inherits the registry but not ownership, so it
    only closes its mappings -- unlinking is the creator's job (the pid guard
    is what keeps a worker's exit from destroying the parent's segments).
    """
    with _REGISTRY.lock:
        published = list(_REGISTRY.published.values())
        attached = list(_REGISTRY.attached.values())
        _REGISTRY.published.clear()
        _REGISTRY.attached.clear()
        _REGISTRY.fetched.clear()
        _REGISTRY.objects.clear()
    owner = _REGISTRY.owner_pid == os.getpid()
    for segment, _handle, _data in published:
        _close_quietly(segment)
        if owner:
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass
    for segment, _data in attached:
        _close_quietly(segment)


atexit.register(unlink_all)
