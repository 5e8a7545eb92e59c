"""Heap files: unordered pages of rows.

:class:`DataFile` is the shared base for the two physical table layouts
(heap and clustered); it owns the page array, bulk append and RID fetch.
All *reads* are routed through the buffer pool, which charges the
caller's :class:`~repro.storage.accounting.IOContext`.  Scans read pages
in allocation order with sequential I/O charges (readahead); RID fetches
are random reads — this asymmetry is the entire economics of the paper's
Index Seek vs. Table Scan decision.  Columnar index fetches read runs of
row locators (:meth:`DataFile.fetch_runs`) with the same accounting as
one :meth:`DataFile.fetch` per row.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.common.errors import StorageError
from repro.common.types import RID, FileId, PageId
from repro.storage.accounting import IOContext
from repro.storage.buffer import BufferPool
from repro.storage.page import Page, rows_per_page


#: Element type of row-locator arrays (:meth:`FileColumns.locate`): C
#: ``int``, 4 bytes, enough for any simulated file; a larger page id or
#: row position raises ``OverflowError`` rather than wrapping.
LOCATOR_TYPECODE = "i"


class FileColumns:
    """Lazily materialized file-level column vectors over a page list.

    Columnar scans used to transpose (and cache) each 73-row page
    separately, which meant one NumPy kernel dispatch per page — too
    little work to amortize the call overhead.  This cache instead holds
    one file-wide vector per *touched* column (predicates on two columns
    materialize two vectors, never the whole table) plus the running
    page-row offsets, and hands out zero-copy
    :class:`~repro.exec.vector.SlicedColumns` views for any contiguous
    page run.  Validity is checked by :meth:`DataFile.file_columns`
    against the append-only row count and the active vector backend.
    """

    __slots__ = ("backend", "num_rows", "_pages", "page_offsets", "_columns")

    def __init__(self, pages: list[Page], backend: str) -> None:
        self.backend = backend
        offsets = [0]
        for page in pages:
            offsets.append(offsets[-1] + page.num_rows)
        self._pages = pages
        #: Row offset of every page's first row, plus the file's row count.
        self.page_offsets = offsets
        self.num_rows = offsets[-1]
        width = len(pages[0].rows_list()[0]) if self.num_rows else 0
        self._columns: list = [None] * width

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, position: int):
        column = self._columns[position]
        if column is None:
            # Imported lazily: storage must stay importable without
            # touching the exec package (which imports storage back).
            from repro.exec import vector

            values = [
                row[position] for page in self._pages for row in page.rows_list()
            ]
            column = vector.make_scan_column(values)
            self._columns[position] = column
        return column

    def locate(self, rids: Iterable[RID]) -> tuple[array, array]:
        """Row locators of ``rids``: their page ids and row positions, as
        two parallel arrays (the input of :meth:`DataFile.fetch_runs`)."""
        offsets = self.page_offsets
        pages = array(LOCATOR_TYPECODE)
        positions = array(LOCATOR_TYPECODE)
        for rid in rids:
            pages.append(rid.page_id)
            positions.append(offsets[rid.page_id] + rid.slot)
        return pages, positions

    def slice_rows(self, start: int, stop: int) -> "Any":
        """An arbitrary contiguous row range as a zero-copy columns view."""
        from repro.exec import vector

        return vector.SlicedColumns(self, start, stop)


class ColumnChunk(NamedTuple):
    """A run of consecutively scanned pages' rows as one column span.

    ``columns`` is a zero-copy view of the run's rows.  ``page_ids`` are
    the pages the scan reads for the run, in scan order, and page
    ``page_ids[i]`` contributes rows ``offsets[i]:offsets[i + 1]`` of the
    view — possibly none, for a page a range seek reads only to find that
    the range has ended.  Building a chunk charges nothing: the scan
    reads each page (:meth:`DataFile.page_reader`) when it commits it.
    """

    columns: Any
    page_ids: list[int]
    offsets: list[int]


def group_column_spans(
    columns: FileColumns,
    spans: Iterable[tuple[int, int, int]],
    rows_per_chunk: int,
) -> Iterator[ColumnChunk]:
    """Group ``(page_id, first_row, stop_row)`` file-row spans into chunks.

    The spans must be contiguous in the file (each starts where the
    previous one stopped, bar empty ones).  A chunk closes once it holds
    ``rows_per_chunk`` rows or more — the granularity at which one
    whole-vector kernel call amortizes NumPy dispatch, which 73-row pages
    cannot.
    """
    page_ids: list[int] = []
    offsets = [0]
    first_row = 0
    for page_id, start, stop in spans:
        if not page_ids:
            first_row = start
        page_ids.append(page_id)
        offsets.append(offsets[-1] + stop - start)
        if offsets[-1] >= rows_per_chunk:
            yield ColumnChunk(
                columns.slice_rows(first_row, first_row + offsets[-1]),
                page_ids,
                offsets,
            )
            page_ids, offsets = [], [0]
    if page_ids:
        yield ColumnChunk(
            columns.slice_rows(first_row, first_row + offsets[-1]), page_ids, offsets
        )


class DataFile:
    """A sequence of pages holding full rows of one table."""

    def __init__(
        self,
        file_id: FileId,
        row_width_bytes: int,
        buffer_pool: BufferPool,
        fill_factor: float = 1.0,
    ) -> None:
        if not 0.0 < fill_factor <= 1.0:
            raise StorageError(f"fill_factor must be in (0, 1], got {fill_factor}")
        self.file_id = file_id
        self.buffer_pool = buffer_pool
        # Kept verbatim (not re-derived from page_capacity) so shard files
        # rebuilt from a partitioned table reproduce the identical layout.
        self.fill_factor = fill_factor
        full_capacity = rows_per_page(row_width_bytes)
        self.page_capacity = max(1, int(full_capacity * fill_factor))
        self._pages: list[Page] = []
        self._num_rows = 0
        self._file_columns: Optional[FileColumns] = None

    # ------------------------------------------------------------------
    # Load path (no I/O charges: loading happens "offline")
    # ------------------------------------------------------------------
    def append_row(self, row: Sequence[Any]) -> RID:
        """Append one row, opening a new page when the last one is full."""
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(Page(PageId(len(self._pages)), self.page_capacity))
        page = self._pages[-1]
        slot = page.append(row)
        self._num_rows += 1
        return RID(page.page_id, slot)

    def bulk_append(self, rows: Iterator[Sequence[Any]]) -> list[RID]:
        """Append many rows; returns their RIDs in insertion order."""
        return [self.append_row(row) for row in rows]

    # ------------------------------------------------------------------
    # Read path (charges the caller's IOContext via the buffer pool)
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def page(self, page_id: PageId) -> Page:
        """Direct page access *without* I/O accounting (internal/tests)."""
        if not 0 <= page_id < len(self._pages):
            raise StorageError(
                f"file {int(self.file_id)}: page {int(page_id)} out of range "
                f"(file has {len(self._pages)} pages)"
            )
        return self._pages[page_id]

    def fetch(self, io: IOContext, rid: RID) -> tuple[PageId, tuple]:
        """Random-access read of one row by RID.

        Returns ``(page_id, row)`` — the page id is what the paper's
        Fetch-side monitors consume.  Charges ``io`` a random physical
        read if the page is not buffered.
        """
        page = self.page(rid.page_id)
        self.buffer_pool.access(self.file_id, rid.page_id, io, sequential=False)
        return rid.page_id, page.get(rid.slot)

    def fetch_runs(
        self,
        io: IOContext,
        locators: tuple[array, array],
        runs: Iterable[tuple[int, int]],
        rows_per_chunk: int,
        index_entries: bool = False,
    ) -> Iterator[tuple[array, array]]:
        """Columnar form of :meth:`fetch`, one run of locators at a time.

        ``locators`` are parallel arrays of data page ids and row
        positions in :meth:`file_columns` (an index's
        :meth:`~repro.storage.btree.BTreeIndex.locators`, or a sorted RID
        list's); ``runs`` are ``[start, stop)`` slices of them, fetched in
        order.  Yields ``(page_ids, row_positions)`` per
        ``rows_per_chunk`` rows (the last chunk may be shorter), for
        gathering column vectors.  With ``index_entries`` every row also
        charges the index entry that located it, as a per-entry seek does.

        The accounting is that of one :meth:`fetch` per row, in order,
        but paid per run piece — a run cut at chunk boundaries: the
        piece's entry charges are added one by one, then its pages are
        read by one :meth:`~repro.storage.buffer.BufferPool.read_run`.
        Entry CPU and page I/O land on separate accumulators, so paying
        each in piece order reproduces the interleaved per-row sums bit
        for bit.  ``runs`` is consumed lazily — an index's
        :meth:`~repro.storage.btree.BTreeIndex.seek_runs` reads a leaf
        only when its run is reached, after any chunk before it has been
        yielded — so a consumer that stops early has read exactly what
        the per-row drive would have.
        """
        pages, positions = locators
        read_run = self.buffer_pool.read_run
        file_id = self.file_id
        chunk_pages = array(LOCATOR_TYPECODE)
        chunk_positions = array(LOCATOR_TYPECODE)
        for run_start, run_stop in runs:
            while run_start < run_stop:
                piece_stop = min(
                    run_stop, run_start + rows_per_chunk - len(chunk_pages)
                )
                if index_entries:
                    io.charge_index_entries(piece_stop - run_start)
                piece = pages[run_start:piece_stop]
                read_run(file_id, io, piece)
                chunk_pages += piece
                chunk_positions += positions[run_start:piece_stop]
                run_start = piece_stop
                if len(chunk_pages) >= rows_per_chunk:
                    yield chunk_pages, chunk_positions
                    chunk_pages = array(LOCATOR_TYPECODE)
                    chunk_positions = array(LOCATOR_TYPECODE)
        if chunk_pages:
            yield chunk_pages, chunk_positions

    def page_reader(self, io: IOContext) -> Callable[[PageId], bool]:
        """A page reader for scans: each call is one sequential
        (readahead) page read charged to ``io`` (see
        :meth:`~repro.storage.buffer.BufferPool.reader`)."""
        return self.buffer_pool.reader(self.file_id, io, sequential=True)

    def scan_pages(
        self, io: IOContext, start_page: int = 0, end_page: Optional[int] = None
    ) -> Iterator[tuple[PageId, Page]]:
        """Iterate pages in allocation order, charging ``io`` sequential reads.

        ``start_page``/``end_page`` bound the scan (used by clustered range
        seeks); ``end_page`` is exclusive and defaults to the file end.
        """
        stop = len(self._pages) if end_page is None else min(end_page, len(self._pages))
        read_page = self.page_reader(io)
        for page_id in range(start_page, stop):
            page = self._pages[page_id]
            read_page(page.page_id)
            yield page.page_id, page

    def file_columns(self) -> FileColumns:
        """The file-level column cache, rebuilt when stale.

        Staleness is cheap to detect because files are append-only: the
        row count strictly grows under :meth:`append_row`, so ``(backend,
        num_rows)`` identifies the loaded snapshot.  The vectors
        themselves materialize lazily, per touched column.
        """
        # Imported lazily: storage must stay importable without touching
        # the exec package (which imports storage back).
        from repro.exec import vector

        cached = self._file_columns
        backend = vector.backend_name()
        if (
            cached is not None
            and cached.backend == backend
            and cached.num_rows == self.num_rows
        ):
            return cached
        cached = FileColumns(self._pages, backend)
        self._file_columns = cached
        return cached

    def column_chunks(self, rows_per_chunk: int) -> Iterator[ColumnChunk]:
        """Columnar full scan: every page, in allocation order, in chunks.

        Page order is that of :meth:`scan_pages`; the caller reads each
        page (:meth:`page_reader`) as it processes it.  The columns are
        zero-copy views of the file-level cache (:meth:`file_columns`), so
        repeated scans of an immutable table pay the row->column
        conversion once per touched column.
        """
        columns = self.file_columns()
        offsets = columns.page_offsets
        spans = (
            (page_id, offsets[page_id], offsets[page_id + 1])
            for page_id in range(len(self._pages))
        )
        return group_column_spans(columns, spans, rows_per_chunk)

    def scan_rows(self, io: IOContext) -> Iterator[tuple[PageId, int, tuple]]:
        """Full scan yielding ``(page_id, slot, row)`` in grouped page order.

        This ordering is the *grouped page access* property of Section III:
        once the iterator moves past a page, that page never reappears.
        """
        for page_id, page in self.scan_pages(io):
            for slot, row in enumerate(page.rows()):
                yield page_id, slot, row


class HeapFile(DataFile):
    """An unordered table: rows live wherever insertion placed them."""

    layout_name = "heap"
