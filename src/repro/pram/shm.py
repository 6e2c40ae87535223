"""Zero-copy shared-memory plane for the ``shm`` executor.

A process pool is honest parallelism, but pickling a query engine's edge
arrays and a batch's distance rows into the task payload, and the rows back,
costs more than the relaxation it parallelizes.  This module removes both
copies for its one user, the ``shm`` query engine and its pool workers:

* a :class:`ShmArena` publishes numpy arrays into ``multiprocessing``
  POSIX shared-memory segments once, handing back tiny :class:`ArrayRef`
  descriptors ``(segment, offset, shape, dtype)``;
* workers resolve descriptors to zero-copy numpy *views* of the same
  physical pages (:func:`as_array` / :func:`resolve`), attaching each
  segment at most once per process;
* output blocks are pre-allocated by the orchestrator, so workers write
  results in place and return only scalars — task traffic is O(1) bytes
  per task regardless of matrix sizes.

Lifecycle is arena-scoped and leak-safe: the *creating* process owns every
segment and unlinks it in :meth:`ShmArena.close` (also via a ``weakref``
finalizer and the interpreter's resource tracker if the owner dies without
closing), while worker processes explicitly disclaim tracker ownership on
attach so a worker crash or exit never destroys segments still in use.
``close()`` is safe while views are still alive: the name is unlinked
immediately (nothing survives in ``/dev/shm``) and the mapping itself is
released when the last view goes away.

:func:`orphaned_segments` supports the leak checks in the test suite and
``tools/check_shm_leaks.py``.
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref
from multiprocessing import shared_memory
from typing import Any, NamedTuple

import numpy as np

__all__ = [
    "ArrayRef",
    "ShmArena",
    "as_array",
    "resolve",
    "orphaned_segments",
    "SEGMENT_PREFIX",
]

#: Prefix of every segment created by this module — the leak checker greps
#: ``/dev/shm`` for it.
SEGMENT_PREFIX = "psp"

#: Alignment of every arena allocation (one cache line — keeps adjacent
#: blocks from false-sharing and keeps dtypes aligned).
_ALIGN = 64


class ArrayRef(NamedTuple):
    """Picklable descriptor of an array living in a shared segment.

    A task payload carries this ~100-byte tuple instead of the array; the
    worker turns it back into a zero-copy view with :func:`as_array`.
    """

    segment: str
    offset: int
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Payload size of the referenced array (not of the descriptor)."""
        count = 1
        for s in self.shape:
            count *= int(s)
        return count * np.dtype(self.dtype).itemsize


# Per-process cache of attached segments: each worker maps a segment at most
# once, no matter how many descriptors point into it.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _disclaim(seg: shared_memory.SharedMemory) -> None:
    """Remove ``seg`` from this process's resource tracker.

    Under the ``spawn``/``forkserver`` start methods every worker runs its
    own tracker; attaching registers the segment there (Python < 3.13 has
    no ``track=False``), and that tracker would unlink the segment when the
    *worker* exits even though the creating process still uses it.  Only
    the arena owner may unlink.

    Under ``fork`` the tracker process is shared with the creator and its
    per-name cache is a set, so the attach registration is an idempotent
    duplicate of the creator's — disclaiming here would erase the
    creator's registration too, so the caller must skip this.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def _attach(name: str) -> shared_memory.SharedMemory:
    seg = _ATTACHED.get(name)
    if seg is None:
        import multiprocessing

        seg = shared_memory.SharedMemory(name=name)
        if multiprocessing.get_start_method(allow_none=True) != "fork":
            _disclaim(seg)
        _ATTACHED[name] = seg
    return seg


def as_array(ref: ArrayRef) -> np.ndarray:
    """Zero-copy numpy view of the array a descriptor points to.

    Works in any process: the segment is attached (and cached) on first use.
    The view aliases shared physical pages — writes are visible to every
    process holding the segment.
    """
    seg = _attach(ref.segment)
    return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf, offset=ref.offset)


def resolve(obj: Any) -> Any:
    """Recursively replace every :class:`ArrayRef` in ``obj`` (dicts, lists,
    tuples) with its shared-memory view; everything else passes through."""
    if isinstance(obj, ArrayRef):
        return as_array(obj)
    if isinstance(obj, dict):
        return {k: resolve(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [resolve(v) for v in obj]
    if isinstance(obj, tuple):
        return tuple(resolve(v) for v in obj)
    return obj


def _unlink_segments(segments: list[shared_memory.SharedMemory]) -> None:
    """Unlink and release every segment of an arena (idempotent)."""
    while segments:
        seg = segments.pop()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        try:
            seg.close()
        except BufferError:
            # Live views still alias the mapping; the name is already gone
            # from /dev/shm, the pages die with the last view.
            pass


class ShmArena:
    """Bump allocator over shared-memory segments, owned by its creator.

    Arrays are packed into chunked segments (``chunk_bytes`` each, or a
    dedicated segment for oversized arrays) at 64-byte alignment.  The arena
    does not free individual allocations — its unit of lifecycle is the
    whole arena, matching the algorithms' use (publish inputs, run a
    parallel phase or many queries, close).  Use as a context manager or
    call :meth:`close`; a finalizer unlinks everything if the owner forgets.
    """

    def __init__(self, chunk_bytes: int = 1 << 23, *, tag: str = "") -> None:
        self._chunk_bytes = int(chunk_bytes)
        # Optional owner tag folded into segment names right after the
        # module prefix (e.g. tag="g3" → "pspg3_<pid>_<hex>"): a query
        # engine tags each arena with its weights epoch, so a leaked
        # segment names the generation that left it.  Still
        # SEGMENT_PREFIX-prefixed, so the leak checker sees tagged
        # segments too.
        if tag and not tag.isalnum():
            raise ValueError(f"arena tag must be alphanumeric, got {tag!r}")
        self._tag = tag
        self._segments: list[shared_memory.SharedMemory] = []
        self._cursor = 0
        self._capacity = 0
        self._closed = False
        # Allocation and close may race across threads once an arena is
        # owned by an asyncio server: queries grow the distance block from
        # event-loop executor threads while shutdown closes the arena from
        # the loop thread itself.  The lock serializes the bump pointer and
        # makes close-vs-alloc a clean "arena is closed" error instead of
        # an unlink under a live allocation.
        self._lock = threading.RLock()
        self._finalizer = weakref.finalize(self, _unlink_segments, self._segments)

    # -------------------------------------------------------------- #

    @property
    def segment_names(self) -> list[str]:
        """Names of the segments currently owned by this arena."""
        return [s.name for s in self._segments]

    @property
    def allocated_bytes(self) -> int:
        """Total bytes of shared memory reserved by this arena."""
        return sum(s.size for s in self._segments)

    def _new_segment(self, at_least: int) -> None:
        size = max(self._chunk_bytes, at_least)
        name = f"{SEGMENT_PREFIX}{self._tag}_{os.getpid():d}_{secrets.token_hex(6)}"
        self._segments.append(shared_memory.SharedMemory(name=name, create=True, size=size))
        self._cursor = 0
        self._capacity = size

    def alloc(self, shape, dtype) -> tuple[ArrayRef, np.ndarray]:
        """Reserve an uninitialized block; returns ``(descriptor, view)``.

        The view belongs to the creating process (typically used to read a
        worker-filled output block); the descriptor is what goes into task
        payloads.
        """
        dtype = np.dtype(dtype)
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        with self._lock:
            if self._closed:
                raise ValueError("arena is closed")
            start = (self._cursor + _ALIGN - 1) & ~(_ALIGN - 1)
            if not self._segments or start + nbytes > self._capacity:
                self._new_segment(nbytes)
                start = 0
            seg = self._segments[-1]
            self._cursor = start + nbytes
        ref = ArrayRef(seg.name, start, tuple(shape), dtype.str)
        view = np.ndarray(ref.shape, dtype=dtype, buffer=seg.buf, offset=start)
        return ref, view

    def publish(self, array: np.ndarray) -> ArrayRef:
        """Copy an array into the arena once; returns its descriptor."""
        array = np.ascontiguousarray(array)
        ref, view = self.alloc(array.shape, array.dtype)
        view[...] = array
        return ref

    def close(self) -> None:
        """Unlink every segment (idempotent, thread-safe).  No entry
        survives in ``/dev/shm``; mappings held by live views drain
        lazily."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._finalizer.detach()
                _unlink_segments(self._segments)

    def __enter__(self) -> "ShmArena":
        """Context-manager entry: the arena itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close (unlink) the arena."""
        self.close()


def orphaned_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of segments with our prefix currently present in ``/dev/shm``.

    After every arena is closed this must be empty — the leak invariant
    checked by the test suite and ``tools/check_shm_leaks.py``.
    """
    base = "/dev/shm"
    if not os.path.isdir(base):  # pragma: no cover - non-POSIX fallback
        return []
    return sorted(f for f in os.listdir(base) if f.startswith(prefix))
