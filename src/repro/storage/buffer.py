"""LRU buffer pool: shared page-residency state, per-execution accounting.

Every page access in the engine goes through :meth:`BufferPool.access`.
A *logical* read that misses the pool becomes a *physical* read and
charges the caller's :class:`~repro.storage.accounting.IOContext` — a
full random read for point accesses (Fetch, B-tree traversal) or an
amortised sequential read for scan readahead.  The paper's experiments
run with a **cold cache** ("All execution times were measured with a
cold cache which ensures that effects due to buffering are eliminated"),
which :meth:`reset` provides; within one query the pool still absorbs
repeated fetches of the same hot page, exactly the effect that makes
*distinct* page count (not fetch count) the right cost parameter.
:meth:`BufferPool.read_run` is the run-level form the columnar index
fetch uses: exactly one :meth:`~BufferPool.access` per page, but
accounted once per run when the run cannot evict anything.

The pool splits *state* from *accounting*: which pages are resident is
genuinely shared (and guarded by a lock, so concurrent executions can
share warmth safely), but every counter and time charge lands on the
context the caller passed in, never on a global.  An ``isolated``
context bypasses the shared frames entirely and uses its own private
frame set with the same capacity — a dedicated cold cache, which is what
lets concurrent cold-cache runs reproduce serial numbers exactly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.common.errors import BufferPoolError
from repro.common.types import FileId, PageId
from repro.storage.accounting import IOContext


@dataclass
class BufferPoolStats:
    """Cumulative shared-pool counters since the last
    :meth:`BufferPool.reset_stats`.

    These describe traffic through the *shared* frame set only; isolated
    contexts keep their own counters (see
    :class:`~repro.storage.accounting.IOContext`), which is what
    per-query ``RunStats`` report.
    """

    logical_reads: int = 0
    physical_reads: int = 0
    physical_random: int = 0
    physical_sequential: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of logical reads served without a physical read.

        Defined as 0.0 when ``logical_reads`` is zero: a pool that has
        served no reads has demonstrated no warmth, so the "everything
        was cold" value is reported rather than raising or returning NaN.
        """
        if self.logical_reads == 0:
            return 0.0
        return 1.0 - self.physical_reads / self.logical_reads


class BufferPool:
    """Fixed-capacity LRU cache of ``(file_id, page_id)`` frames.

    The pool stores only identities, not page payloads — the pages live in
    their files; what matters for the simulation is *whether a read is
    physical* and what it costs, and the cost always lands on the caller's
    :class:`~repro.storage.accounting.IOContext`.
    """

    def __init__(self, capacity_pages: int = 8192) -> None:
        if capacity_pages <= 0:
            raise BufferPoolError(
                f"buffer pool capacity must be positive, got {capacity_pages}"
            )
        self.capacity_pages = capacity_pages
        self._frames: OrderedDict[tuple[FileId, PageId], None] = OrderedDict()
        self.stats = BufferPoolStats()
        self._lock = threading.Lock()

    def __contains__(self, key: tuple[FileId, PageId]) -> bool:
        return key in self._frames

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    def access(
        self,
        file_id: FileId,
        page_id: PageId,
        io: IOContext,
        sequential: bool = False,
    ) -> bool:
        """Record one logical page read; returns True if it hit a frame.

        On a miss the page is faulted in: ``io`` is charged one physical
        read (sequential or random) and an LRU victim is evicted if the
        frame set is full.  Shared-frame bookkeeping happens under the
        pool lock; an ``isolated`` context uses its private frame set
        (same capacity, initially cold) and touches no shared state.
        """
        key = (file_id, page_id)
        if io.isolated:
            return self._touch(io.private_frames(), key, io, sequential)
        with self._lock:
            hit = self._touch(self._frames, key, io, sequential)
            self.stats.logical_reads += 1
            if not hit:
                self.stats.physical_reads += 1
                if sequential:
                    self.stats.physical_sequential += 1
                else:
                    self.stats.physical_random += 1
            return hit

    def read_run(
        self,
        file_id: FileId,
        io: IOContext,
        page_ids: Sequence[int],
        sequential: bool = False,
    ) -> None:
        """Read ``page_ids`` of one file in order: exactly one
        :meth:`access` per page, accounted per run.

        When the run's new distinct pages fit in the free frames, nothing
        can be evicted, so the per-access outcome is known up front: each
        new distinct page is one physical read (its first access), every
        other access a hit, and the LRU order ends with the run's pages
        ordered by their last access.  That is what is charged and
        replayed, once per distinct page instead of once per access; the
        read charges add the per-page rate once per read, as single reads
        do (see :class:`~repro.storage.accounting.IOContext`).  A run that
        could evict takes the per-access path instead, where the victim
        depends on the interleaving.
        """
        if io.isolated:
            self._read_run(io.private_frames(), file_id, io, page_ids, sequential)
            return
        with self._lock:
            hits = self._read_run(self._frames, file_id, io, page_ids, sequential)
            stats = self.stats
            misses = len(page_ids) - hits
            stats.logical_reads += len(page_ids)
            stats.physical_reads += misses
            if sequential:
                stats.physical_sequential += misses
            else:
                stats.physical_random += misses

    def _read_run(
        self,
        frames: "OrderedDict[tuple[FileId, PageId], None]",
        file_id: FileId,
        io: IOContext,
        page_ids: Sequence[int],
        sequential: bool,
    ) -> int:
        """:meth:`read_run` on one frame set; returns the number of hits."""
        # Distinct pages in order of their last access in the run.
        keys = [(file_id, page) for page in dict.fromkeys(page_ids[::-1])]
        keys.reverse()
        misses = len(keys) - sum(map(frames.__contains__, keys))
        if len(frames) + misses > self.capacity_pages:
            touch = self._touch
            return sum(
                touch(frames, (file_id, page), io, sequential)
                for page in page_ids
            )
        move_to_end = frames.move_to_end
        for key in keys:
            frames[key] = None  # appends a new page, keeps a resident one
            move_to_end(key)
        if sequential:
            io.charge_sequential_read(misses)
        else:
            io.charge_random_read(misses)
        hits = len(page_ids) - misses
        io.record_pool_hit(hits)
        return hits

    def reader(
        self, file_id: FileId, io: IOContext, sequential: bool
    ) -> Callable[[PageId], bool]:
        """:meth:`access` with the file, context and read kind bound.

        For loops that read many pages of one file: an isolated
        context's private frame set is resolved once, up front, so each
        read is one :meth:`_touch`.  Charges, counters and LRU updates
        are exactly those of :meth:`access`.
        """
        if not io.isolated:
            return lambda page_id: self.access(file_id, page_id, io, sequential)
        frames = io.private_frames()
        touch = self._touch
        return lambda page_id: touch(frames, (file_id, page_id), io, sequential)

    def _touch(
        self,
        frames: "OrderedDict[tuple[FileId, PageId], None]",
        key: tuple[FileId, PageId],
        io: IOContext,
        sequential: bool,
    ) -> bool:
        if key in frames:
            frames.move_to_end(key)
            io.record_pool_hit()
            return True
        if sequential:
            io.charge_sequential_read()
        else:
            io.charge_random_read()
        if len(frames) >= self.capacity_pages:
            frames.popitem(last=False)
            io.record_eviction()
            if frames is self._frames:
                self.stats.evictions += 1
        frames[key] = None
        return False

    def reset(self) -> None:
        """Cold-cache reset: drop all shared frames (keeps cumulative stats)."""
        with self._lock:
            self._frames.clear()

    def reset_stats(self) -> None:
        self.stats = BufferPoolStats()

    def __repr__(self) -> str:
        return (
            f"BufferPool({len(self._frames)}/{self.capacity_pages} pages, "
            f"{self.stats.logical_reads} logical / {self.stats.physical_reads} physical)"
        )
