"""Content-addressed shared-memory transport for bulky task payloads.

Task-shipping backends (:class:`~repro.exec.cluster.ProcessBackend`,
:class:`~repro.exec.cluster.ClusterBackend`) would otherwise pickle a round's
whole shared context -- the explorer's workload tuple with its operand arrays
-- into every worker's dispatch.  This module is the zero-copy alternative: an
object is *published* once per host into a ``multiprocessing.shared_memory``
segment and the task context carries a small :class:`ShmHandle` (digest +
segment name + size) instead of megabytes of pickled bytes.  Workers resolve
handles back to objects; resolution is content-addressed, so a handle
republished by a later round with identical bytes maps onto the worker's
existing attachment and onto the *already unpickled* object, which is what
makes warm pools start warm.

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

Object payloads are zero-copy too.  :func:`publish_object` pickles with
protocol 5 and a ``buffer_callback``, so every contiguous array in the object
graph leaves the pickle stream as an out-of-band buffer.  The payload is then
framed as::

    <u64 part count n> <n x u64 part lengths> [pad] stream [pad] buffer 1 ...

with every part starting on a :data:`FRAME_ALIGN`-byte boundary.  The digest
hashes the whole framed payload, so the content address still covers the
stream and every buffer.  :func:`resolve_object` unpickles from read-only
memoryviews of the parts: the arrays it returns are read-only views of the
segment, not copies.  Strided arrays have no single buffer and stay in-band.
Inline handles and fetched (cross-host) bytes carry the same framed payload
and decode through the same path.

Publishing is idempotent per digest and the publisher owns segment lifetime:
:func:`unlink_all` (registered ``atexit``) closes and unlinks every segment
this process created.  Each published entry records the pid that created it,
so a forked child unlinks what it published itself and never what it
inherited from its parent.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import struct
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import knobs

#: Payloads at or below this many bytes ship inline in the handle: a pickle of
#: this size costs less than a segment create + attach round-trip.
INLINE_MAX_BYTES = 1 << 16

#: Every part of a framed object payload starts on this byte boundary, so an
#: array unpickled from a segment is as aligned as a fresh allocation.
FRAME_ALIGN = 64
_FRAME_WORD = struct.Struct("<Q")


def shm_enabled() -> bool:
    """Whether publishes may create shared-memory segments (``REPRO_SHM``)."""
    return knobs.value("REPRO_SHM") == "on"


@dataclass(frozen=True)
class ShmHandle:
    """The blessed picklable reference to a published object payload.

    This is the *only* shared-memory object allowed inside task encodings
    (lint rule R004 flags raw ``SharedMemory`` objects in ``*Context`` /
    ``*Task`` classes): it carries no live OS resource, pickles to ~100 bytes,
    and resolves on any host -- via the named segment when visible, the
    per-worker fetch cache otherwise, or the ``inline`` bytes it was published
    with.
    """

    digest: str
    #: Bytes in the framed payload.
    size: int
    segment: Optional[str] = None
    inline: Optional[bytes] = None


@dataclass
class _Registry:
    """Process-local shm state, inherited as a whole by forked children."""

    #: digest -> (SharedMemory, handle, read-only view, creator pid) for
    #: segments this process created (or inherited mappings of, after a fork:
    #: the creator pid then names the parent, which keeps the unlink).
    published: Dict[str, Tuple[Any, ShmHandle, np.ndarray, int]] = field(
        default_factory=dict
    )
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


def _digest_of(pieces: Sequence[Any]) -> str:
    hasher = hashlib.sha1()
    hasher.update(b"object|")
    for piece in pieces:
        hasher.update(piece)
    return hasher.hexdigest()


def _segment_name(digest: str) -> str:
    # The publisher pid namespaces the name so two concurrent processes
    # publishing the same content never race on one segment; the digest tail
    # makes leaks attributable (`ls /dev/shm/repro-*`).
    return f"repro-{os.getpid()}-{digest[:16]}"


def _aligned(offset: int) -> int:
    return -(-offset // FRAME_ALIGN) * FRAME_ALIGN


def _frame(parts: Sequence[Any]) -> List[Any]:
    """The pieces of one framed payload: length header, then each part aligned.

    ``parts`` are 1-D byte buffers; the pieces concatenate to the payload
    without copying a part.
    """
    header = struct.pack(f"<{len(parts) + 1}Q", len(parts), *map(len, parts))
    pieces: List[Any] = [header]
    offset = len(header)
    for part in parts:
        start = _aligned(offset)
        if start > offset:
            pieces.append(bytes(start - offset))
        pieces.append(part)
        offset = start + len(part)
    return pieces


def _unframe(payload: memoryview) -> List[memoryview]:
    """The parts of a framed payload, as views into it."""
    (count,) = _FRAME_WORD.unpack_from(payload)
    lengths = struct.unpack_from(f"<{count}Q", payload, _FRAME_WORD.size)
    parts = []
    offset = _FRAME_WORD.size * (count + 1)
    for length in lengths:
        offset = _aligned(offset)
        parts.append(payload[offset : offset + length])
        offset += length
    return parts


def _view(buffer, size: int) -> np.ndarray:
    """The first ``size`` bytes of ``buffer`` as a read-only ``uint8`` array."""
    array = np.frombuffer(buffer, dtype=np.uint8)[:size]
    array.flags.writeable = False
    return array


#: Whether this process was forked while its parent's ``resource_tracker``
#: ran, and so reports to that same tracker.
_TRACKER_INHERITED = False


def _note_fork() -> None:
    global _TRACKER_INHERITED
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    _TRACKER_INHERITED = (
        tracker is not None
        and getattr(tracker._resource_tracker, "_fd", None) is not None  # noqa: SLF001
    )


os.register_at_fork(after_in_child=_note_fork)


def _attach_untracked(name: str):
    """Open an existing segment without adopting its lifetime.

    Attaching registers the segment with this process's ``resource_tracker``
    (Python < 3.13 has no opt-out), which would unlink it when *this* process
    exits even though the publisher still serves it to other workers -- so the
    registration is reverted immediately after the attach.  A child forked
    while the tracker ran shares it with its parent, whose own registration
    of the segment the revert would erase, so such a child keeps it.
    """
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(name=name)
    if _TRACKER_INHERITED:
        return segment
    try:
        resource_tracker.unregister(segment._name, "shared_memory")  # noqa: SLF001
    except Exception:  # pragma: no cover - tracker variations across versions
        pass
    return segment


# -- publishing ------------------------------------------------------------------------


def publish_object(obj: Any) -> ShmHandle:
    """Pickle ``obj`` out-of-band, publish the framed payload, return its handle.

    Contiguous arrays in ``obj`` travel as protocol-5 out-of-band buffers, so
    resolving the handle maps them instead of copying them.  The digest
    addresses the whole framed payload, so workers that already resolved an
    identical payload reuse their cached *unpickled* object -- repeated
    rounds on a warm pool skip both the transfer and the unpickle.

    Idempotent per content: republishing identical bytes returns the existing
    handle.  Small payloads, ``REPRO_SHM=off`` and shm-less platforms fall
    back to an inline handle (same digest, same resolution path).
    """
    buffers: List[pickle.PickleBuffer] = []
    stream = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    pieces = _frame([stream, *(buffer.raw() for buffer in buffers)])
    digest = _digest_of(pieces)
    with _REGISTRY.lock:
        entry = _REGISTRY.published.get(digest)
        if entry is not None:
            return entry[1]
    size = sum(map(len, pieces))
    if size <= INLINE_MAX_BYTES or not shm_enabled():
        return ShmHandle(digest=digest, size=size, inline=b"".join(pieces))
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(
            create=True, size=size, name=_segment_name(digest)
        )
    except FileExistsError:
        # Same digest re-published after the registry was cleared mid-process:
        # adopt the existing segment (contents are by construction identical).
        segment = _attach_untracked(_segment_name(digest))
    except (OSError, ImportError, ValueError):  # pragma: no cover - no shm
        return ShmHandle(digest=digest, size=size, inline=b"".join(pieces))
    offset = 0
    for piece in pieces:
        segment.buf[offset : offset + len(piece)] = piece
        offset += len(piece)
    handle = ShmHandle(digest=digest, size=size, segment=segment.name)
    view = _view(segment.buf, size)
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
        _REGISTRY.published[digest] = (segment, handle, view, os.getpid())
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


def _resolve_payload(handle: ShmHandle) -> np.ndarray:
    """The framed payload behind ``handle`` (read-only; zero-copy when local)."""
    if handle.inline is not None:
        return _view(handle.inline, handle.size)
    with _REGISTRY.lock:
        entry = _REGISTRY.published.get(handle.digest)
        if entry is not None:
            return entry[2]
        attached = _REGISTRY.attached.get(handle.digest)
        if attached is not None:
            return attached[1]
        data = _REGISTRY.fetched.get(handle.digest)
    if data is not None:
        return _view(data, handle.size)
    if handle.segment is not None:
        try:
            segment = _attach_untracked(handle.segment)
        except (FileNotFoundError, OSError):
            segment = None
        if segment is not None:
            view = _view(segment.buf, handle.size)
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
            return _view(data, handle.size)
    raise RuntimeError(
        f"cannot resolve shm handle {handle.digest[:12]} (segment "
        f"{handle.segment!r}): the publishing process is gone or unreachable "
        "and no fetch hook is installed"
    )


def resolve_object(handle: ShmHandle) -> Any:
    """Unpickle an object payload once per process and return the cached object.

    The object's out-of-band arrays are read-only views of the payload (the
    segment, the inline bytes or the fetched bytes), never copies.
    """
    with _REGISTRY.lock:
        if handle.digest in _REGISTRY.objects:
            return _REGISTRY.objects[handle.digest]
    stream, *buffers = _unframe(memoryview(_resolve_payload(handle)))
    obj = pickle.loads(stream, buffers=buffers)
    with _REGISTRY.lock:
        return _REGISTRY.objects.setdefault(handle.digest, obj)


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

    Safe after a fork: a child inherits the registry, but each entry records
    its creator pid, so the child only closes the mappings it inherited and
    unlinks just the segments it published itself.
    """
    with _REGISTRY.lock:
        published = list(_REGISTRY.published.values())
        attached = list(_REGISTRY.attached.values())
        _REGISTRY.published.clear()
        _REGISTRY.attached.clear()
        _REGISTRY.fetched.clear()
        _REGISTRY.objects.clear()
    pid = os.getpid()
    for segment, _handle, _data, creator in published:
        _close_quietly(segment)
        if creator == pid:
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass
    for segment, _data in attached:
        _close_quietly(segment)


atexit.register(unlink_all)
