"""Shared-memory segments: the shard-node dataset hand-off.

``repro serve --cluster`` publishes the parsed dataset once as a
``multiprocessing.shared_memory`` segment holding its columnar form
(:class:`~repro.index.columns.ColumnStore`), and every locally spawned node
attaches it -- an ``shm_open`` + ``mmap``, constant in dataset size --
instead of re-reading and re-parsing the dataset file.

Lifecycle rules (the part the VDBMS bug literature says to get right):

* every segment wrapper is refcounted: :meth:`SharedSegment.acquire` /
  :meth:`SharedSegment.release`, with close-on-last-release;
* the **creator** unlinks the segment on its last release (attachments that
  outlive the creator keep their mapping -- POSIX keeps the memory alive
  until the last close -- but no name is left behind in ``/dev/shm``);
* attachers deregister from ``multiprocessing.resource_tracker`` so the
  tracker does not double-unlink a segment it does not own (bpo-38119);
* a ``weakref.finalize`` backstop closes leaked wrappers at GC/exit, and
  :func:`live_segment_names` exposes every wrapper this process still holds
  open so tests can assert nothing leaks;
* when shared memory is unavailable (import failure or a failing probe),
  :func:`shared_memory_available` returns False and every node loads the
  dataset file instead -- the dataset, and so every answer, is the same.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from typing import Dict, List, Optional, Tuple

from repro.index.columns import ColumnStore

__all__ = [
    "SharedSegment",
    "attach_dataset",
    "attach_segment",
    "create_segment",
    "live_segment_names",
    "publish_dataset_segment",
    "shared_memory_available",
]

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exotic builds only
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

#: Name prefix of every segment this package creates; leak checks (tests and
#: the CI gate) look for stray ``/dev/shm/repro_dp_*`` entries.
SEGMENT_PREFIX = "repro_dp_"

_COUNTER = itertools.count(1)
_LIVE_LOCK = threading.Lock()
#: Every open wrapper's ``(name, owner)``, keyed by the raw segment's id --
#: a name can legitimately appear twice (the owner plus a same-process
#: attacher), so the registry must not collapse by name, and it must not
#: hold the wrapper itself (that would pin it and defeat the GC backstop).
_LIVE: Dict[int, Tuple[str, bool]] = {}

_availability: Optional[bool] = None


def shared_memory_available() -> bool:
    """True when shared-memory segments can actually be created here.

    Probes once by creating and destroying a tiny segment; a read-only
    ``/dev/shm`` or a missing implementation makes the cluster spawner fall
    back to file loading rather than failing the spawn.
    """
    global _availability
    if _availability is None:
        if shared_memory is None:
            _availability = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                _availability = True
            except (OSError, ValueError):
                _availability = False
    return _availability


class SharedSegment:
    """One shared-memory segment with an explicit refcounted lifecycle.

    Args:
        segment: The underlying ``SharedMemory`` object.
        owner: True for the creating process (unlinks on last release).

    The wrapper starts with a refcount of 1 (the caller's reference).
    ``acquire``/``release`` nest; the last release closes the mapping and,
    for the owner, unlinks the name.  Both are idempotent after close.
    """

    def __init__(self, segment: "shared_memory.SharedMemory", owner: bool) -> None:
        self._segment = segment
        self.name = segment.name
        self.owner = owner
        self._refs = 1
        self._lock = threading.Lock()
        self._closed = False
        with _LIVE_LOCK:
            _LIVE[id(segment)] = (self.name, owner)
        # GC/exit backstop: a leaked wrapper must not leave a named segment
        # behind.  The finalizer captures the raw segment, never ``self``.
        self._finalizer = weakref.finalize(
            self, _finalize_segment, segment, owner, self.name
        )

    @property
    def buf(self) -> memoryview:
        """The segment's buffer (valid until the last release)."""
        return self._segment.buf

    @property
    def closed(self) -> bool:
        """True once the last reference has been released."""
        return self._closed

    def acquire(self) -> "SharedSegment":
        """Add one reference; raises if the segment is already closed."""
        with self._lock:
            if self._closed:
                raise ValueError(f"segment {self.name} is closed")
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; the last release closes (and owner-unlinks)."""
        with self._lock:
            if self._closed:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self._closed = True
        self._finalizer.detach()
        _finalize_segment(self._segment, self.owner, self.name)


def _finalize_segment(
    segment: "shared_memory.SharedMemory", owner: bool, name: str
) -> None:
    with _LIVE_LOCK:
        _LIVE.pop(id(segment), None)
    try:
        segment.close()
    except BufferError:  # pragma: no cover - exported views still alive
        # Leaving the mapping to process exit is better than crashing the
        # caller; the unlink below still removes the public name.
        pass
    if owner:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def live_segment_names() -> List[str]:
    """Names of every segment wrapper this process currently holds open."""
    with _LIVE_LOCK:
        return sorted({name for name, _ in _LIVE.values()})


def create_segment(payload: bytes) -> SharedSegment:
    """Create an owner segment holding ``payload`` (name: ``repro_dp_*``)."""
    if not shared_memory_available():
        raise OSError("shared memory is not available")
    size = max(1, len(payload))
    while True:
        name = f"{SEGMENT_PREFIX}{os.getpid()}_{next(_COUNTER)}"
        try:
            segment = shared_memory.SharedMemory(create=True, size=size, name=name)
            break
        except FileExistsError:  # pragma: no cover - stale name collision
            continue
    segment.buf[: len(payload)] = payload
    return SharedSegment(segment, owner=True)


def attach_segment(name: str) -> SharedSegment:
    """Attach to an existing segment by name (non-owner)."""
    if shared_memory is None:
        raise OSError("shared memory is not available")
    segment = shared_memory.SharedMemory(name=name)
    with _LIVE_LOCK:
        owned_here = any(
            live_name == name and owner for live_name, owner in _LIVE.values()
        )
    if resource_tracker is not None and os.name == "posix" and not owned_here:
        # An attacher in another process (a spawned shard node) has its own
        # resource tracker, which believes it owns the segment and would
        # unlink it at interpreter exit, racing the real owner (bpo-38119);
        # only the creator's registration may stand.  A process attaching
        # its own segment skips this: its register entries collapse by
        # name, so an unregister would delete the creator's own entry.
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals moved
            pass
    return SharedSegment(segment, owner=False)


# ---------------------------------------------------------------------- #
# dataset segments (cluster spawn: parse once, attach everywhere)


def publish_dataset_segment(data_objects, feature_objects) -> SharedSegment:
    """Publish a full parsed dataset as one owner segment.

    ``repro serve --cluster N`` calls this once and hands the segment name
    to every spawned shard node (``--dataset-shm``): the nodes attach and
    materialize the datasets from the columns instead of each re-reading
    and re-parsing the dataset file.  The caller releases the segment after
    the fleet is up -- every node attaches during startup, before its ready
    line, so the spawner's ready-wait doubles as the hand-off barrier.

    Raises:
        OSError: when shared memory is unavailable here (callers fall back
            to file loading on every node).
    """
    payload = ColumnStore.from_datasets(
        data_objects=data_objects, feature_objects=feature_objects
    ).to_bytes()
    return create_segment(payload)


def attach_dataset(name: str):
    """Materialize ``(data_objects, feature_objects)`` from a dataset segment.

    Attaches, copies the rows out as model objects (equal to the objects the
    publisher packed, oids/coordinates/keyword sets included), then detaches
    and releases -- the attachment only spans this call.

    Raises:
        OSError: when the segment cannot be attached.
        ValueError: when the segment does not hold both dataset columns.
    """
    segment = attach_segment(name)
    try:
        store = ColumnStore.attach(segment.buf)
        try:
            if store.data is None or store.features is None:
                raise ValueError(f"segment {name} does not hold a dataset")
            data_objects = store.data.to_objects()
            feature_objects = store.features.to_objects()
        finally:
            store.detach()
    finally:
        segment.release()
    return data_objects, feature_objects
