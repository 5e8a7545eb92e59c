"""Non-clustered B-tree indexes.

A :class:`BTreeIndex` maps (composite) key tuples to row locators (RIDs —
see :mod:`repro.storage.clustered` for why RIDs suffice on immutable
tables).  Leaf entries are packed into index pages sized by the key width,
so index fan-out and leaf page counts are realistic; non-leaf levels are
modelled implicitly (assumed cached, as in the Mackert–Lohman model), so a
range seek charges one random read for the first leaf and sequential reads
for subsequent leaves, plus a per-entry CPU charge.
:meth:`BTreeIndex.seek_runs` is that I/O, one leaf at a time, and
:meth:`BTreeIndex.seek_range` adds the per-entry loop for row-at-a-time
callers; the columnar fetch instead reads the index's compact row
locators (:meth:`BTreeIndex.locators`) one leaf run at a time
(:meth:`~repro.storage.heap.DataFile.fetch_runs`).

Entries for equal keys are stored in *insertion* order, which for our bulk
loads is physical row order — this matches how SQL Server's uniquifier
tie-breaks and keeps INL fetch patterns realistic.

``included_columns`` payloads make an index covering: a covering scan can
produce those column values without touching the table (Section III-B's
"Scan of a Covering Index").
"""

from __future__ import annotations

import bisect
from array import array
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from repro.common.errors import IndexError_
from repro.common.types import RID, FileId, PageId
from repro.catalog.schema import IndexDef, TableSchema
from repro.storage.accounting import IOContext
from repro.storage.buffer import BufferPool
from repro.storage.page import USABLE_PAGE_BYTES

if TYPE_CHECKING:
    from repro.storage.heap import FileColumns

#: Simulated per-entry overhead (slot pointer + row locator).
_ENTRY_OVERHEAD_BYTES = 9
_LOCATOR_BYTES = 8


class BTreeIndex:
    """A secondary index over one table."""

    def __init__(
        self,
        definition: IndexDef,
        schema: TableSchema,
        file_id: FileId,
        buffer_pool: BufferPool,
    ) -> None:
        self.definition = definition
        self.schema = schema
        self.file_id = file_id
        self.buffer_pool = buffer_pool
        self._key_positions = tuple(
            schema.position(col) for col in definition.key_columns
        )
        self._payload_positions = tuple(
            schema.position(col) for col in definition.included_columns
        )
        entry_width = (
            sum(schema.column(c).width_bytes for c in definition.carried_columns())
            + _LOCATOR_BYTES
            + _ENTRY_OVERHEAD_BYTES
        )
        self.entries_per_page = max(1, USABLE_PAGE_BYTES // entry_width)
        # Sorted leaf entries: (key_tuple, rid, payload_tuple).
        self._entries: list[tuple[tuple, RID, tuple]] = []
        self._keys: list[tuple] = []
        self._built = False
        #: (data rows, entries, page ids, row positions): see :meth:`locators`.
        self._locators: Optional[tuple[int, int, array, array]] = None

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def num_leaf_pages(self) -> int:
        if not self._entries:
            return 0
        return -(-len(self._entries) // self.entries_per_page)  # ceil div

    def key_of(self, row: Sequence[Any]) -> tuple:
        return tuple(row[pos] for pos in self._key_positions)

    # ------------------------------------------------------------------
    # Build path
    # ------------------------------------------------------------------
    def build(self, rows_with_rids: Iterator[tuple[RID, Sequence[Any]]]) -> None:
        """Build the index from ``(rid, row)`` pairs; callable once."""
        if self._built:
            raise IndexError_(f"index {self.name} was already built")
        entries = []
        for rid, row in rows_with_rids:
            key = self.key_of(row)
            payload = tuple(row[pos] for pos in self._payload_positions)
            entries.append((key, rid, payload))
        entries.sort(key=lambda entry: (entry[0], entry[1].page_id, entry[1].slot))
        if self.definition.unique:
            for previous, current in zip(entries, entries[1:]):
                if previous[0] == current[0]:
                    raise IndexError_(
                        f"unique index {self.name}: duplicate key {current[0]!r}"
                    )
        self._entries = entries
        self._keys = [entry[0] for entry in entries]
        self._built = True

    def insert(self, rid: RID, row: Sequence[Any]) -> None:
        """Insert one row's entry, keeping leaf order (incremental load).

        Supports append workloads on heap tables: the entry is placed at
        its sorted position (``bisect``), so seeks stay correct; leaf page
        numbers shift accordingly, matching how a real B-tree's logical
        leaf order absorbs inserts.
        """
        self._require_built()
        key = self.key_of(row)
        payload = tuple(row[pos] for pos in self._payload_positions)
        index = bisect.bisect_left(self._keys, key)
        # Advance past equal keys to keep RID tie-break order.
        while (
            index < len(self._entries)
            and self._entries[index][0] == key
            and (self._entries[index][1].page_id, self._entries[index][1].slot)
            < (rid.page_id, rid.slot)
        ):
            index += 1
        if self.definition.unique and (
            (index < len(self._keys) and self._keys[index] == key)
            or (index > 0 and self._keys[index - 1] == key)
        ):
            raise IndexError_(f"unique index {self.name}: duplicate key {key!r}")
        self._entries.insert(index, (key, rid, payload))
        self._keys.insert(index, key)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_(f"index {self.name} has not been built")

    def _leaf_page_of(self, entry_index: int) -> PageId:
        return PageId(entry_index // self.entries_per_page)

    def _normalize(self, key: Any) -> tuple:
        """Accept a scalar for single-column keys; always store tuples."""
        if isinstance(key, tuple):
            return key
        return (key,)

    def entry_span(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> tuple[int, int]:
        """Leaf-entry positions ``[start, stop)`` of a range seek (no charge).

        A partial (prefix) key bound on a composite index is supported by
        passing a shorter tuple; comparison semantics follow Python tuple
        ordering, which matches B-tree prefix-range behaviour for
        inclusive-low / exclusive-high prefix bounds.  The upper bound
        compares only the provided prefix length of each key, and is
        found by bisection too: key prefixes are non-decreasing in leaf
        order.
        """
        keys = self._keys
        if low is None:
            start = 0
        else:
            low_key = self._normalize(low)
            start = (
                bisect.bisect_left(keys, low_key)
                if low_inclusive
                else bisect.bisect_right(keys, low_key)
            )
        if high is None:
            return start, len(keys)
        high_key = self._normalize(high)
        width = len(high_key)
        find = bisect.bisect_right if high_inclusive else bisect.bisect_left
        stop = find(keys, high_key, lo=start, key=lambda key: key[:width])
        return start, stop

    def seek_runs(
        self,
        io: IOContext,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[int, int]]:
        """The index I/O of a range seek (see :meth:`entry_span`), one leaf
        at a time.

        Charges ``io`` the root-to-leaf descent, then reads the leaves of
        the range in order — the first a random read, the ones after it
        sequential — and yields each leaf's run ``[run_start, run_stop)``
        of entry positions just after reading that leaf, so a consumer
        that stops early has read only the leaves it reached.  Per-entry
        CPU is the consumer's to charge, one entry at a time.
        """
        self._require_built()
        # Root-to-leaf descent: non-leaf levels are assumed cached, so the
        # traversal costs CPU, charged once per seek.
        io.charge_index_descent(1)
        start, stop = self.entry_span(low, high, low_inclusive, high_inclusive)
        run_start = start
        while run_start < stop:
            leaf = self._leaf_page_of(run_start)
            run_stop = min(stop, (int(leaf) + 1) * self.entries_per_page)
            self.buffer_pool.access(
                self.file_id, leaf, io, sequential=run_start > start
            )
            yield run_start, run_stop
            run_start = run_stop

    def seek_range(
        self,
        io: IOContext,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[tuple, RID, tuple]]:
        """Yield ``(key, rid, payload)`` for keys within the range (see
        :meth:`entry_span`), in key order, charging ``io`` index-page I/O
        (:meth:`seek_runs`) and per-entry CPU as it goes."""
        entries = self._entries
        charge_entry = io.charge_index_entries
        for run_start, run_stop in self.seek_runs(
            io, low, high, low_inclusive, high_inclusive
        ):
            for index in range(run_start, run_stop):
                charge_entry(1)
                yield entries[index]

    def locators(self, file_columns: "FileColumns") -> tuple[array, array]:
        """Per-entry row locators in leaf order, as two compact arrays:
        each entry's data page id and its row's position in
        ``file_columns`` (the data file's column cache).

        What :meth:`~repro.storage.heap.DataFile.fetch_runs` reads instead
        of the entries' RIDs.  Cached against the snapshot's row count
        and the entry count, which both only grow (files and indexes are
        append-only), so an append rebuilds them on the next fetch.
        """
        cached = self._locators
        if (
            cached is not None
            and cached[0] == file_columns.num_rows
            and cached[1] == len(self._entries)
        ):
            return cached[2], cached[3]
        entries = self._entries
        pages, positions = file_columns.locate(entry[1] for entry in entries)
        self._locators = (file_columns.num_rows, len(entries), pages, positions)
        return pages, positions

    def seek_equal(self, io: IOContext, key: Any) -> Iterator[tuple[tuple, RID, tuple]]:
        """All entries with exactly this (possibly prefix) key."""
        normalized = self._normalize(key)
        return self.seek_range(
            io, low=normalized, high=normalized, low_inclusive=True, high_inclusive=True
        )

    def scan_all(self, io: IOContext) -> Iterator[tuple[tuple, RID, tuple]]:
        """Full leaf-order scan (the access path of a covering-index scan)."""
        return self.seek_range(io)

    def __repr__(self) -> str:
        return (
            f"BTreeIndex({self.name} on {self.definition.table_name}"
            f"({', '.join(self.definition.key_columns)}), "
            f"{len(self._entries)} entries, {self.num_leaf_pages} leaf pages)"
        )
