"""Zero-copy shared-memory CST plane for the worker pool.

Pickling a task's partitions would serialize their candidates and CSR
adjacency arrays into the call pipe, copy them into the worker, and
deserialize them again — per task, per attempt. This module keeps the
arrays out of the pipe entirely:

:class:`CstArena`
    A bump allocator over named ``multiprocessing.shared_memory``
    segments, owned by the dispatching (parent) process. The execute
    stage places each :class:`~repro.cst.partition.PartitionSet`'s
    backing arrays — its offsets, ``candidates[u]`` and every
    adjacency ``indptr``/``targets`` — into the arena once, and ships
    only a :class:`SetRef` across the process boundary.

:class:`ArrayRef`
    A ``(segment, offset, shape)`` triple. ``view()`` reconstructs a
    read-only ``int64`` numpy view over the segment with zero copy.
    Workers attach each segment once (module-level cache) and map it
    read-only; under the default ``fork`` start method they usually
    inherit the parent's mapping and never even hit the filesystem.

:class:`SetRef`
    One placed set: where its pickled header (query, tree, sizes)
    lies, plus one :class:`ArrayRef` per array. ``load()`` rebuilds
    the set zero-copy, once per process.

Lifecycle: the arena is created lazily on the first pooled
dispatch (:meth:`repro.runtime.context.RunContext.ensure_arena`),
closed and unlinked by ``RunContext.close()`` / the CLI ``finally``
path, and backstopped by an ``atexit`` guard. A SIGKILLed owner leaks
no segments either: creation registers each segment with the
``multiprocessing`` resource tracker (a separate process), which
unlinks everything still registered when its last client dies. Worker
processes never register or unlink anything — attach uses a raw
``shm_open`` + read-only ``mmap`` so a worker's exit cannot destroy
segments the owner still serves.

Modeled seconds are unaffected by any of this: the arena changes how
bytes reach a worker, never what the worker computes (see
docs/timing_model.md).
"""

from __future__ import annotations

import atexit
import itertools
import mmap
import os
import pickle
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.cst.partition import PartitionSet

#: Default size of one arena segment. Segments are few and large so
#: worker-side attaches stay O(segments), not O(arrays); arrays larger
#: than this get a dedicated segment.
DEFAULT_CHUNK_BYTES = 32 << 20

#: int64 alignment of every placement (numpy requires aligned access
#: for zero-copy views; mmap bases are page-aligned already).
_ALIGN = 8

#: Per-process cache of attached segment buffers, ``name -> buffer``.
#: The owner seeds it with its own (writable) segment buffers so
#: ``ArrayRef.view()`` resolves without re-attaching; forked workers
#: inherit those entries — and the mappings behind them — for free.
_ATTACHED: dict[str, Any] = {}

#: Keeps worker-side attachments (mmap or SharedMemory) alive for the
#: lifetime of the process; views borrow their buffers.
_ATTACHMENTS: list[Any] = []

#: Cold-attach timings, ``(segment, start_perf_counter, seconds)``,
#: recorded per process and drained by the pool worker loop so each
#: request's trace shows where a worker actually paid a mapping cost
#: (a forked worker usually inherits the mapping and records nothing).
#: Bounded so a pathological segment churn cannot grow without limit.
_ATTACH_EVENTS: list[tuple[str, float, float]] = []
_MAX_ATTACH_EVENTS = 1024


def drain_attach_events() -> list[tuple[str, float, float]]:
    """Return and clear this process's cold-attach timing records."""
    events, _ATTACH_EVENTS[:] = list(_ATTACH_EVENTS), []
    return events


def _attach(segment: str) -> Any:
    """The buffer of ``segment``, attaching read-only on first use.

    The primary path maps the segment via ``shm_open`` + ``mmap``
    directly, which keeps the ``multiprocessing`` resource tracker out
    of worker processes entirely: a tracker registration made on
    attach would either be cancelled (destroying the *owner's*
    registration when the tracker is shared under ``fork``) or
    honoured (unlinking a live segment when a spawn-mode worker
    exits). The fallback — platforms without ``_posixshmem`` — uses
    ``SharedMemory`` and immediately withdraws its registration.
    """
    buf = _ATTACHED.get(segment)
    if buf is not None:
        return buf
    start = time.perf_counter()
    try:
        import _posixshmem

        fd = _posixshmem.shm_open("/" + segment, os.O_RDONLY, 0o600)
        try:
            size = os.fstat(fd).st_size
            mapped = mmap.mmap(fd, size, prot=mmap.PROT_READ)
        finally:
            os.close(fd)
        _ATTACHMENTS.append(mapped)
        buf = memoryview(mapped)
    except ImportError:  # pragma: no cover - non-POSIX fallback
        shm = shared_memory.SharedMemory(name=segment)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        _ATTACHMENTS.append(shm)
        buf = shm.buf
    if len(_ATTACH_EVENTS) < _MAX_ATTACH_EVENTS:
        _ATTACH_EVENTS.append(
            (segment, start, time.perf_counter() - start)
        )
    _ATTACHED[segment] = buf
    return buf


@dataclass(frozen=True)
class ArrayRef:
    """A picklable handle to an ``int64`` array in a shared segment.

    Crossing a process boundary costs the few dozen bytes of this
    triple instead of the array payload; :meth:`view` reconstructs the
    array as a read-only zero-copy view on either side.
    """

    segment: str
    offset: int
    shape: tuple[int, ...]

    def __reduce__(self):
        # Tuple-based pickling: a set ref carries dozens of refs per
        # task, and the dataclass default (per-field state dict) is
        # measurably slower on both ends of the pipe.
        return (ArrayRef, (self.segment, self.offset, self.shape))

    def view(self) -> np.ndarray:
        # Hot path: called for every array of every dispatched
        # partition, so stay at one ndarray construction with no
        # intermediate frombuffer/reshape pair.
        if not self.segment:
            arr = np.empty(self.shape, dtype=np.int64)
            arr.setflags(write=False)
            return arr
        buf = _ATTACHED.get(self.segment)
        if buf is None:
            buf = _attach(self.segment)
        arr = np.ndarray(self.shape, np.int64, buf, self.offset)
        # A view over a read-only mapping is already non-writable; the
        # owner's own (writable) buffers need the explicit flag so no
        # code path can mutate shared state behind another view.
        arr.setflags(write=False)
        return arr


#: Per-process cache of loaded sets, ``arena id -> (segment, offset)
#: of the header -> PartitionSet``, for one arena at a time. A set's
#: lazily built lookup arrays (``contains_batch`` keys, row lengths)
#: stay warm across every window and request that reads it. A ref from
#: another arena (a server recycles its arena) drops the cached sets,
#: so the cache holds at most the sets one arena has placed.
_SETS: dict[int, dict[tuple[str, int], PartitionSet]] = {}

#: Arena ids, unique in the dispatching process that owns the arenas
#: and forks the workers.
_ARENA_IDS = itertools.count()


@dataclass(frozen=True)
class SetRef:
    """A picklable handle to a :class:`PartitionSet` placed in shared
    memory: a task pays bytes per array, not per element. The set's
    pickled header is ``length`` bytes at ``offset`` of ``segment``, in
    the arena with id ``arena``."""

    segment: str
    offset: int
    length: int
    arrays: tuple[ArrayRef, ...]
    arena: int

    def load(self) -> PartitionSet:
        """The set, rebuilt zero-copy over read-only views (once per
        process while its arena is the last one this process loaded
        from)."""
        sets = _SETS.get(self.arena)
        if sets is None:
            _SETS.clear()
            sets = _SETS[self.arena] = {}
        key = (self.segment, self.offset)
        pset = sets.get(key)
        if pset is None:
            buf = _attach(self.segment)
            header = pickle.loads(
                bytes(buf[self.offset:self.offset + self.length])
            )
            pset = PartitionSet.from_arrays(
                header, [ref.view() for ref in self.arrays]
            )
            sets[key] = pset
        return pset


class CstArena:
    """Bump allocator over owned shared-memory segments.

    ``place`` copies an array into the arena and returns its
    :class:`ArrayRef`; ``place_set`` memoizes whole-set placements by
    object identity, so re-dispatching the same resident set (every
    window of a run, serve batches, harness sweeps) places nothing
    new. Only the creating process ever unlinks: ``close()`` in a
    forked child is a no-op, and the resource tracker covers a
    SIGKILLed owner.
    """

    def __init__(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        self._chunk_bytes = max(int(chunk_bytes), _ALIGN)
        self._segments: list[shared_memory.SharedMemory] = []
        self._cursor = 0
        self._owner_pid = os.getpid()
        self.id = next(_ARENA_IDS)
        #: ``id(set) -> (set, ref)``; the strong reference prevents id
        #: reuse from aliasing two different sets.
        self._sets: dict[int, tuple[PartitionSet, SetRef]] = {}
        self.placed_bytes = 0
        self.closed = False
        _LIVE_ARENAS.append(self)

    # -- allocation ----------------------------------------------------

    def _grow(self, nbytes: int) -> None:
        size = max(self._chunk_bytes, nbytes)
        seg = shared_memory.SharedMemory(create=True, size=size)
        self._segments.append(seg)
        self._cursor = 0
        _ATTACHED[seg.name] = seg.buf

    def _reserve(self, nbytes: int) -> tuple[shared_memory.SharedMemory, int]:
        """An aligned ``nbytes`` slot: its segment and offset."""
        if self.closed:
            raise RuntimeError("CstArena is closed")
        pad = (-self._cursor) % _ALIGN
        if (
            not self._segments
            or self._cursor + pad + nbytes > self._segments[-1].size
        ):
            self._grow(nbytes)
            pad = 0
        offset = self._cursor + pad
        self._cursor = offset + nbytes
        self.placed_bytes += nbytes
        return self._segments[-1], offset

    def place(self, arr: np.ndarray) -> ArrayRef:
        """Copy ``arr`` into the arena; returns its :class:`ArrayRef`."""
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        if arr.size == 0:
            return ArrayRef("", 0, tuple(arr.shape))
        seg, offset = self._reserve(arr.nbytes)
        dst = np.frombuffer(
            seg.buf, dtype=np.int64, count=arr.size, offset=offset
        )
        dst[:] = arr.ravel()
        return ArrayRef(seg.name, offset, tuple(arr.shape))

    def place_set(self, pset: PartitionSet) -> SetRef:
        """The (memoized) placement of every array of ``pset``."""
        hit = self._sets.get(id(pset))
        if hit is not None and hit[0] is pset:
            return hit[1]
        arrays = tuple(self.place(arr) for arr in pset.arrays())
        blob = pickle.dumps(pset.header(), protocol=pickle.HIGHEST_PROTOCOL)
        seg, offset = self._reserve(len(blob))
        seg.buf[offset:offset + len(blob)] = blob
        ref = SetRef(seg.name, offset, len(blob), arrays, self.id)
        self._sets[id(pset)] = (pset, ref)
        return ref

    # -- introspection ---------------------------------------------------

    def segment_names(self) -> tuple[str, ...]:
        return tuple(seg.name for seg in self._segments)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Unlink every owned segment (idempotent; owner process only).

        A forked worker inherits the arena object but must never
        destroy the parent's segments, so ``close()`` away from the
        owning pid only drops local references.
        """
        if self.closed:
            return
        self.closed = True
        _SETS.pop(self.id, None)
        self._sets.clear()
        if self in _LIVE_ARENAS:
            _LIVE_ARENAS.remove(self)
        if os.getpid() != self._owner_pid:
            self._segments = []
            return
        for seg in self._segments:
            _ATTACHED.pop(seg.name, None)
            try:
                seg.close()
            except BufferError:
                # A live view still borrows the mapping. Drop our
                # handles without closing — the mapping dies with the
                # last view — and disarm ``__del__``, which would
                # otherwise retry ``close()`` at gc time and raise the
                # same BufferError unraisably.
                try:
                    if seg._fd >= 0:
                        os.close(seg._fd)
                        seg._fd = -1
                    seg._buf = None
                    seg._mmap = None
                except (AttributeError, OSError):  # pragma: no cover
                    pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass  # already unlinked (e.g. by the resource tracker)
        self._segments = []


#: Arenas not yet closed; the atexit guard sweeps them so an unhandled
#: exception (or a test that forgets) cannot leak /dev/shm entries.
_LIVE_ARENAS: list[CstArena] = []


@atexit.register
def _close_live_arenas() -> None:  # pragma: no cover - exit path
    for arena in list(_LIVE_ARENAS):
        try:
            arena.close()
        except Exception:
            pass
