"""Scan operators: heap/clustered full scans, clustered range seeks and
covering index scans.

These are the *scan plans* of §III-B.  They run inside the storage engine,
see page ids, enjoy grouped page access, and host the
:class:`~repro.core.monitors.ScanMonitorBundle` that implements exact
counting and DPSample.  The scan evaluates:

* the query's own residual terms with normal short-circuiting on every
  row (this decides output and feeds exact prefix counters), and
* the full monitor conjunction with short-circuiting **off**, but only on
  pages the Bernoulli sampler selected and only when some request needs
  terms the plan would otherwise skip (Fig. 4, step 4).

All predicate-term evaluations — normal and monitoring-induced — are
charged to the execution's own IOContext, which is how the overhead
measurements of Figs. 7 and 9 arise.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core.monitors import FetchMonitorBundle, ScanMonitorBundle
from repro.exec import vector
from repro.exec.base import ExecutionContext, Operator
from repro.exec.batch import RowBatch
from repro.sql.evaluator import BoundConjunction, CompiledConjunction
from repro.sql.predicates import Conjunction
from repro.storage.heap import ColumnChunk
from repro.storage.table import Table


class _MonitoredScanMixin:
    """Shared row-loop logic for operators with grouped page access."""

    table: Table
    query_conjunction: Conjunction
    monitor_conjunction: Conjunction
    bundle: Optional[ScanMonitorBundle]

    #: Resume tracking (armed by the reopt watchdog, off by default): the
    #: batch/columnar drives record the clustering-key value of the last
    #: row of each *fully processed* page (of each chunk, for an
    #: unmonitored columnar scan, which commits whole chunks).  Cancellation raises at the
    #: checkpoint that precedes the next page, and the downstream
    #: consumer has synchronously drained every yielded batch, so after a
    #: mid-query stop ``resume_key`` is an exact replay boundary: every
    #: row with key <= resume_key was scanned, none beyond it were.  The
    #: row drive does not track (its root-level cancellation check can
    #: fire mid-page), which is why resume is a batch/columnar-only path.
    resume_tracking = False
    resume_key_position: Optional[int] = None
    resume_key: Any = None

    def _bind(self) -> BoundConjunction:
        return BoundConjunction(
            self.monitor_conjunction, self.table.schema.column_names
        )

    def _scan_pages(
        self, ctx: ExecutionContext, page_iter: Iterator[tuple[Any, Any]]
    ) -> Iterator[tuple]:
        """Drive the page/row loop over ``(page_id, rows_iterable)`` pairs.

        The unmonitored/monitored and full-evaluation cases are split into
        separate row loops (and ``self.stats`` is hoisted into locals) so
        the hot loop carries no per-row branch on monitor state.
        """
        bound = self._bind()
        num_query_terms = len(self.query_conjunction)
        io = ctx.io
        bundle = self.bundle
        stats = self.stats
        if bundle is None:
            for _page_id, rows in page_iter:
                ctx.checkpoint()
                stats.pages_touched += 1
                for row in rows:
                    io.charge_rows(1)
                    outcome = bound.evaluate_prefix(
                        row, num_query_terms, short_circuit=True
                    )
                    io.charge_predicates(outcome.evaluations)
                    stats.predicate_evaluations += outcome.evaluations
                    if outcome.passed:
                        stats.actual_rows += 1
                        yield row
            return
        for page_id, rows in page_iter:
            ctx.checkpoint()
            stats.pages_touched += 1
            bundle.start_page(page_id)
            if bundle.needs_full_evaluation():
                for row in rows:
                    io.charge_rows(1)
                    outcome = bound.evaluate(row, short_circuit=False)
                    io.charge_predicates(outcome.evaluations)
                    stats.predicate_evaluations += outcome.evaluations
                    bundle.observe_row(outcome, row, io)
                    if all(outcome.truth[:num_query_terms]):
                        stats.actual_rows += 1
                        yield row
            else:
                for row in rows:
                    io.charge_rows(1)
                    outcome = bound.evaluate_prefix(
                        row, num_query_terms, short_circuit=True
                    )
                    io.charge_predicates(outcome.evaluations)
                    stats.predicate_evaluations += outcome.evaluations
                    bundle.observe_row(outcome, row, io)
                    if outcome.passed:
                        stats.actual_rows += 1
                        yield row
            bundle.end_page()

    def _scan_pages_batched(
        self, ctx: ExecutionContext, page_iter: Iterator[tuple[Any, list[tuple]]]
    ) -> Iterator[RowBatch]:
        """Page-at-a-time drive: one compiled-kernel evaluation per page.

        Emits one :class:`RowBatch` of surviving rows per page (empty
        pages are charged and observed but yield nothing, matching the
        row loop, which simply yields no rows for them).
        """
        compiled = self._bind().compile()
        num_query_terms = len(self.query_conjunction)
        io = ctx.io
        bundle = self.bundle
        stats = self.stats
        track_resume = self.resume_tracking
        key_position = self.resume_key_position
        for page_id, rows in page_iter:
            ctx.checkpoint()
            stats.pages_touched += 1
            io.charge_rows(len(rows))
            if track_resume and rows and key_position is not None:
                self.resume_key = rows[-1][key_position]
            if bundle is not None:
                bundle.start_page(page_id)
                if bundle.needs_full_evaluation():
                    outcome = compiled.evaluate_batch(rows, short_circuit=False)
                    passed = outcome.prefix_passed(num_query_terms)
                else:
                    outcome = compiled.evaluate_batch(
                        rows, num_query_terms, short_circuit=True
                    )
                    passed = outcome.passed
                io.charge_predicates(outcome.evaluations)
                stats.predicate_evaluations += outcome.evaluations
                bundle.observe_batch(outcome, rows, io)
                bundle.end_page()
            else:
                outcome = compiled.evaluate_batch(
                    rows, num_query_terms, short_circuit=True
                )
                passed = outcome.passed
                io.charge_predicates(outcome.evaluations)
                stats.predicate_evaluations += outcome.evaluations
            out = [row for row, ok in zip(rows, passed) if ok]
            stats.actual_rows += len(out)
            if out:
                yield RowBatch(out, page_id)

    def _scan_columnar(
        self, ctx: ExecutionContext, chunks: Iterator[ColumnChunk]
    ) -> Iterator[RowBatch]:
        """Columnar drive: one kernel per chunk, committed page by page.

        Consumes :class:`~repro.storage.heap.ColumnChunk` runs of about
        ``ctx.batch_rows`` rows and evaluates each with one whole-vector
        kernel — wide enough to amortize NumPy dispatch, which 73-row
        pages cannot.  Without monitors nothing is page-granular, so the
        whole chunk is committed at once (:meth:`_commit_chunk`).  With
        monitors, :meth:`_commit_pages` replays every page boundary
        exactly as a page-at-a-time drive would.
        """
        compiled = self._bind().compile()
        for chunk in chunks:
            if self.bundle is None:
                batch = self._commit_chunk(ctx, compiled, chunk)
                if batch is not None:
                    yield batch
            else:
                yield from self._commit_pages(ctx, compiled, chunk)

    def _commit_chunk(
        self, ctx: ExecutionContext, compiled: CompiledConjunction, chunk: ColumnChunk
    ) -> Optional[RowBatch]:
        """Read, charge and filter an unmonitored chunk as one unit.

        Every observable here — reads, row/predicate charges, evaluation
        counts, ``pages_touched``, surviving rows — is additive across
        pages, so one checkpoint and one charge per chunk suffice.  The
        checkpoint follows the chunk's page reads: a run stopped there
        has read the whole chunk and committed only the chunks before it
        (``resume_key`` is that of the last committed chunk).
        """
        columns, page_ids, offsets = chunk
        io = ctx.io
        stats = self.stats
        read_page = self.table.data_file.page_reader(io)
        for page_id in page_ids:
            read_page(page_id)
        num_rows = offsets[-1]
        if not num_rows:
            return None
        ctx.checkpoint()
        stats.pages_touched += sum(
            1 for start, stop in zip(offsets, offsets[1:]) if stop > start
        )
        io.charge_rows(num_rows)
        if self.resume_tracking and self.resume_key_position is not None:
            self.resume_key = vector.value_at(
                columns[self.resume_key_position], num_rows - 1
            )
        outcome = compiled.evaluate_columns(
            columns, num_rows, len(self.query_conjunction), short_circuit=True
        )
        io.charge_predicates(outcome.evaluations)
        stats.predicate_evaluations += outcome.evaluations
        selected = vector.mask_count(outcome.passed)
        stats.actual_rows += selected
        if not selected:
            return None
        if selected < num_rows:
            columns = vector.take_columns(columns, outcome.passed)
        return RowBatch.from_columns(columns, page_ids[0], num_rows=selected)

    def _commit_pages(
        self, ctx: ExecutionContext, compiled: CompiledConjunction, chunk: ColumnChunk
    ) -> Iterator[RowBatch]:
        """Evaluate a monitored chunk once, then commit it page by page.

        The chunk-wide kernel runs the query's terms with short-circuit
        semantics, so term *i*'s witness mask is the prefix conjunction
        of terms ``0..i``.  Per page, segmented reductions over the page
        row offsets then give exactly what evaluating that page alone
        would have: surviving rows (the last prefix mask), predicate
        evaluations (term *i* is evaluated on the rows alive after term
        *i-1*) and each monitor entry's page flag.  The first page the
        Bernoulli sampler selects for full evaluation triggers one full,
        non-short-circuited evaluation of the whole chunk, whose raw term
        masks serve every sampled page of the chunk.

        The commit loop then replays each page boundary in the
        page-at-a-time order — the page read, ``ctx.checkpoint()``,
        ``pages_touched``, row charge, resume key, sampler coin,
        predicate charge, monitor checks and flags, ``end_page``,
        ``actual_rows`` — and yields the page's surviving rows before the
        next page's checkpoint.  So the reopt watchdog, cancellation and
        partial harvest observe the same state at the same boundaries as
        with page-at-a-time evaluation: a chunk never runs ahead of them.
        """
        columns, page_ids, offsets = chunk
        io = ctx.io
        bundle = self.bundle
        assert bundle is not None
        stats = self.stats
        read_page = self.table.data_file.page_reader(io)
        key_position = self.resume_key_position if self.resume_tracking else None
        num_query_terms = len(self.query_conjunction)
        num_rows = offsets[-1]
        outcome = compiled.evaluate_columns(
            columns, num_rows, num_query_terms, short_circuit=True
        )
        truth = outcome.truth
        # Prefix masks alive before terms 1..n-1 (None once every row of
        # the chunk is dead: later terms were evaluated on no row).
        alive = [
            truth[i]
            for i in range(num_query_terms - 1)
            if truth[i] is not None
        ]
        *alive_counts, passed_counts = vector.segment_counts(
            alive + [outcome.passed], offsets
        )
        # Short-circuited evaluations per page: term 0 on every row, term
        # i on the rows alive after term i-1.
        short_circuit_evaluations = [
            (stop - start if num_query_terms else 0) + sum(counts)
            for start, stop, *counts in zip(offsets, offsets[1:], *alive_counts)
        ]
        flags = bundle.chunk_flags(truth, offsets, full=False)
        full_flags = None
        filtered = vector.take_columns(columns, outcome.passed)
        out_start = 0
        for page, page_id in enumerate(page_ids):
            read_page(page_id)
            start, stop = offsets[page], offsets[page + 1]
            if start == stop:
                continue  # read only to find that the range ended
            ctx.checkpoint()
            stats.pages_touched += 1
            page_rows = stop - start
            io.charge_rows(page_rows)
            if key_position is not None:
                self.resume_key = vector.value_at(columns[key_position], stop - 1)
            bundle.start_page(page_id)
            if bundle.needs_full_evaluation():
                if full_flags is None:
                    full = compiled.evaluate_columns(
                        columns, num_rows, short_circuit=False
                    )
                    full_flags = bundle.chunk_flags(full.truth, offsets, full=True)
                page_flags = full_flags
                evaluations = page_rows * len(compiled)
            else:
                page_flags = flags
                evaluations = short_circuit_evaluations[page]
            io.charge_predicates(evaluations)
            stats.predicate_evaluations += evaluations
            page_columns = vector.SlicedColumns(columns, start, stop)
            bundle.observe_page_flags(page_flags, page, page_rows, page_columns, io)
            bundle.end_page()
            selected = passed_counts[page]
            stats.actual_rows += selected
            if selected == page_rows:
                yield RowBatch.from_columns(page_columns, page_id, num_rows=page_rows)
            elif selected:
                yield RowBatch.from_columns(
                    vector.SlicedColumns(filtered, out_start, out_start + selected),
                    page_id,
                    num_rows=selected,
                )
            out_start += selected

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())


class SeqScan(_MonitoredScanMixin, Operator):
    """Full scan of a heap or clustered table (the paper's "Table Scan")."""

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        query_conjunction: Conjunction,
        bundle: Optional[ScanMonitorBundle] = None,
        monitor_conjunction: Optional[Conjunction] = None,
    ) -> None:
        super().__init__()
        self.table = table
        self.query_conjunction = query_conjunction
        self.monitor_conjunction = (
            monitor_conjunction if monitor_conjunction is not None else query_conjunction
        )
        self.bundle = bundle
        self.stats.detail = f"{table.name} [{query_conjunction.key()}]"

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        def pages():
            for page_id, page in self.table.data_file.scan_pages(ctx.io):
                yield page_id, page.rows()

        yield from self._scan_pages(ctx, pages())

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        if ctx.vectorized:
            yield from self._scan_columnar(
                ctx, self.table.data_file.column_chunks(ctx.batch_rows)
            )
            return

        def pages():
            for page_id, page in self.table.data_file.scan_pages(ctx.io):
                yield page_id, page.rows_list()

        yield from self._scan_pages_batched(ctx, pages())


class ClusteredRangeScan(_MonitoredScanMixin, Operator):
    """Range seek on the clustering key, plus residual predicate.

    Visits only the contiguous page run covering the key range; grouped
    page access holds within the run, so scan monitoring applies to any
    request that *includes* the range predicate (the planner enforces
    this — pages outside the run cannot satisfy such requests).
    """

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        low: Optional[tuple],
        high: Optional[tuple],
        query_conjunction: Conjunction,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        bundle: Optional[ScanMonitorBundle] = None,
        monitor_conjunction: Optional[Conjunction] = None,
    ) -> None:
        super().__init__()
        self.table = table
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.query_conjunction = query_conjunction
        self.monitor_conjunction = (
            monitor_conjunction if monitor_conjunction is not None else query_conjunction
        )
        self.bundle = bundle
        self.stats.detail = (
            f"{table.name} key in "
            f"{'[' if low_inclusive else '('}{low}, {high}"
            f"{']' if high_inclusive else ')'} [{query_conjunction.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        def pages():
            clustered = self.table.clustered_file()
            current_page = None
            current_rows: list[tuple] = []
            for page_id, _slot, row in clustered.seek_range(
                ctx.io, self.low, self.high, self.low_inclusive, self.high_inclusive
            ):
                if page_id != current_page:
                    if current_page is not None:
                        yield current_page, current_rows
                    current_page, current_rows = page_id, []
                current_rows.append(row)
            if current_page is not None:
                yield current_page, current_rows

        yield from self._scan_pages(ctx, pages())

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        clustered = self.table.clustered_file()
        if ctx.vectorized:
            # Unmonitored, a range scan is committed in one-page chunks, so
            # it checkpoints once per page like its row and batch drives: a
            # deadline stops it within one page, with every page it read
            # processed, and a watchdog watching another operator of the
            # plan sees the same boundaries.
            rows_per_chunk = ctx.batch_rows if self.bundle is not None else 1
            yield from self._scan_columnar(
                ctx,
                clustered.seek_range_chunks(
                    self.low,
                    self.high,
                    self.low_inclusive,
                    self.high_inclusive,
                    rows_per_chunk,
                ),
            )
            return
        yield from self._scan_pages_batched(
            ctx,
            clustered.seek_range_pages(
                ctx.io, self.low, self.high, self.low_inclusive, self.high_inclusive
            ),
        )


class CoveringIndexScan(Operator):
    """Full leaf scan of a covering index.

    Outputs the index's carried columns.  Table page ids are *not* scanned
    here, but each leaf entry carries the row's locator, so DPC requests
    over carried columns are monitored with a
    :class:`~repro.core.monitors.FetchMonitorBundle` (linear counting over
    locator page ids) — grouped access holds for *index* pages, not for
    the table pages the request is about, hence the fetch-style mechanism.
    This refines the paper's blanket statement that covering-index scans
    behave like scan plans; the counts are identical, only the counter
    memory differs (documented in DESIGN.md).
    """

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        index_name: str,
        query_conjunction: Conjunction,
        bundle: Optional[FetchMonitorBundle] = None,
        monitor_conjunction: Optional[Conjunction] = None,
        monitor_full_eval: bool = False,
    ) -> None:
        super().__init__()
        self.table = table
        self.index = table.index(index_name)
        self.query_conjunction = query_conjunction
        self.monitor_conjunction = (
            monitor_conjunction if monitor_conjunction is not None else query_conjunction
        )
        self.bundle = bundle
        self.monitor_full_eval = monitor_full_eval
        self.stats.detail = (
            f"{table.name}.{index_name} (covering) [{query_conjunction.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.index.definition.carried_columns()

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        columns = self.output_columns
        bound = BoundConjunction(self.monitor_conjunction, columns)
        num_query_terms = len(self.query_conjunction)
        io = ctx.io
        # Per-context counters make this an exact attribution even with
        # other executions in flight (the old code diffed global pool stats).
        leaf_pages_before = io.logical_reads
        entries_seen = 0
        for key, rid, payload in self.index.scan_all(io):
            entries_seen += 1
            if not entries_seen % 256:  # ~ a few leaf pages of entries
                ctx.checkpoint()
            entry_row = key + payload
            io.charge_rows(1)
            if self.monitor_full_eval and self.bundle is not None:
                outcome = bound.evaluate(entry_row, short_circuit=False)
                passed = all(outcome.truth[:num_query_terms])
            else:
                outcome = bound.evaluate_prefix(
                    entry_row, num_query_terms, short_circuit=True
                )
                passed = outcome.passed
            io.charge_predicates(outcome.evaluations)
            self.stats.predicate_evaluations += outcome.evaluations
            if self.bundle is not None:
                self.bundle.observe_fetch(rid.page_id, outcome, io)
            if passed:
                self.stats.actual_rows += 1
                yield entry_row
        self.stats.pages_touched = io.logical_reads - leaf_pages_before

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        if ctx.vectorized:
            yield from self._columnar_batches(ctx)
            return
        columns = self.output_columns
        compiled = BoundConjunction(self.monitor_conjunction, columns).compile()
        num_query_terms = len(self.query_conjunction)
        io = ctx.io
        bundle = self.bundle
        stats = self.stats
        full_eval = self.monitor_full_eval and bundle is not None
        leaf_pages_before = io.logical_reads
        chunk_size = ctx.batch_rows
        entries: list[tuple] = []
        page_ids: list[Any] = []

        def flush() -> list[tuple]:
            io.charge_rows(len(entries))
            if full_eval:
                outcome = compiled.evaluate_batch(entries, short_circuit=False)
                passed = outcome.prefix_passed(num_query_terms)
            else:
                outcome = compiled.evaluate_batch(
                    entries, num_query_terms, short_circuit=True
                )
                passed = outcome.passed
            io.charge_predicates(outcome.evaluations)
            stats.predicate_evaluations += outcome.evaluations
            if bundle is not None:
                bundle.observe_fetch_batch(page_ids, outcome, io)
            out = [row for row, ok in zip(entries, passed) if ok]
            stats.actual_rows += len(out)
            return out

        for key, rid, payload in self.index.scan_all(io):
            entries.append(key + payload)
            page_ids.append(rid.page_id)
            if len(entries) >= chunk_size:
                ctx.checkpoint()
                out = flush()
                if out:
                    yield RowBatch(out)
                entries, page_ids = [], []
        if entries:
            out = flush()
            if out:
                yield RowBatch(out)
        stats.pages_touched = io.logical_reads - leaf_pages_before

    def _columnar_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """Columnar drive: chunks of leaf entries transposed into vectors.

        The leaf stream yields Python tuples, so chunks are transposed
        once (``columns_from_rows``) and then evaluated with whole-vector
        kernels; the fetch bundle consumes witness masks.  Accounting and
        counter feeds match the batch drive chunk for chunk.
        """
        column_names = self.output_columns
        width = len(column_names)
        compiled = BoundConjunction(self.monitor_conjunction, column_names).compile()
        num_query_terms = len(self.query_conjunction)
        io = ctx.io
        bundle = self.bundle
        stats = self.stats
        full_eval = self.monitor_full_eval and bundle is not None
        leaf_pages_before = io.logical_reads
        chunk_size = ctx.batch_rows
        entries: list[tuple] = []
        page_ids: list[Any] = []

        def flush() -> Optional[RowBatch]:
            num_rows = len(entries)
            io.charge_rows(num_rows)
            chunk_columns = vector.columns_from_rows(entries, width)
            if full_eval:
                outcome = compiled.evaluate_columns(
                    chunk_columns, num_rows, short_circuit=False
                )
                passed = outcome.prefix_passed(num_query_terms)
            else:
                outcome = compiled.evaluate_columns(
                    chunk_columns, num_rows, num_query_terms, short_circuit=True
                )
                passed = outcome.passed
            io.charge_predicates(outcome.evaluations)
            stats.predicate_evaluations += outcome.evaluations
            if bundle is not None:
                bundle.observe_fetch_columns(page_ids, outcome, io)
            selected = vector.mask_count(passed)
            stats.actual_rows += selected
            if not selected:
                return None
            if selected == num_rows:
                return RowBatch.from_columns(chunk_columns, num_rows=num_rows)
            filtered = tuple(
                vector.take(column, passed) for column in chunk_columns
            )
            return RowBatch.from_columns(filtered, num_rows=selected)

        for key, rid, payload in self.index.scan_all(io):
            entries.append(key + payload)
            page_ids.append(rid.page_id)
            if len(entries) >= chunk_size:
                ctx.checkpoint()
                batch = flush()
                if batch is not None:
                    yield batch
                entries, page_ids = [], []
        if entries:
            batch = flush()
            if batch is not None:
                yield batch
        stats.pages_touched = io.logical_reads - leaf_pages_before

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())
