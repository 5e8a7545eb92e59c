"""Index plans: Index Seek and Index Intersection, with their Fetch step.

These are the *index plans* of §III-A.  The Fetch step requests rows by
locator, so the storage engine resolves each locator to a page — the page
id stream the :class:`~repro.core.monitors.FetchMonitorBundle` feeds into
linear counters (Fig. 3).  Grouped page access does **not** hold here
(Fig. 2), which is exactly why probabilistic counting is used instead of
the per-page flag counters of scan plans.  The row and list-batch drives
fetch one RID at a time; the columnar drive fetches runs of the index's
row locators (:meth:`~repro.storage.heap.DataFile.fetch_runs`), whose
reads and charges are bit-identical to the per-RID loop.

The residual predicate (terms not implied by the seek range) is evaluated
on the fetched row inside the storage engine, in plan order with
short-circuiting; monitored expressions must be prefixes of that order
(the planner enforces this — see §II-B's Index Seek discussion).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.common.types import RID
from repro.core.monitors import FetchMonitorBundle
from repro.exec import vector
from repro.exec.base import ExecutionContext, Operator
from repro.exec.batch import RowBatch
from repro.sql.evaluator import BoundConjunction
from repro.sql.predicates import Conjunction
from repro.storage.btree import BTreeIndex
from repro.storage.table import Table


class _FetchResidualMixin:
    """Shared batch drives for operators that fetch rows then filter them."""

    table: Table
    residual: Conjunction
    bundle: Optional[FetchMonitorBundle]
    monitor_full_eval: bool

    def _fetch_rids(
        self, ctx: ExecutionContext, rids: Iterable[RID]
    ) -> Iterator[RowBatch]:
        """List-batch drive over a RID stream: each RID's row is fetched
        (its data page read) as the stream reaches it, so the index's leaf
        reads and the data-page reads interleave as in the row drive."""
        io = ctx.io
        return self._fetch_batches(ctx, (self.table.fetch(io, rid) for rid in rids))

    def _fetch_index_runs(
        self, ctx: ExecutionContext, index: BTreeIndex, runs: Iterable[tuple[int, int]]
    ) -> Iterator[RowBatch]:
        """Columnar drive over index entry runs (:meth:`BTreeIndex.seek_runs`):
        the run-level fetch kernel reads each run's data pages and charges
        its entries (:meth:`~repro.storage.heap.DataFile.fetch_runs`)."""
        data_file = self.table.data_file
        locators = index.locators(data_file.file_columns())
        return self._fetch_columnar(
            ctx,
            data_file.fetch_runs(
                ctx.io, locators, runs, ctx.batch_rows, index_entries=True
            ),
        )

    def _fetch_batches(
        self, ctx: ExecutionContext, fetch_iter: Iterator[tuple[Any, tuple]]
    ) -> Iterator[RowBatch]:
        """Chunk a ``(page_id, row)`` fetch stream through compiled kernels.

        Accounting and monitor feeds are totals-identical to the row loop:
        one ``charge_rows(n)`` per chunk, the residual evaluated with the
        same short-circuit setting, and the fetch bundle observing the
        same (page id, truth) pairs.
        """
        io = ctx.io
        compiled = BoundConjunction(
            self.residual, self.table.schema.column_names
        ).compile()
        short_circuit = not self.monitor_full_eval
        bundle = self.bundle
        stats = self.stats
        chunk_size = ctx.batch_rows
        pages_seen: set[int] = set()
        rows_buf: list[tuple] = []
        page_ids: list[Any] = []

        def flush() -> list[tuple]:
            io.charge_rows(len(rows_buf))
            outcome = compiled.evaluate_batch(rows_buf, short_circuit=short_circuit)
            io.charge_predicates(outcome.evaluations)
            stats.predicate_evaluations += outcome.evaluations
            if bundle is not None:
                bundle.observe_fetch_batch(page_ids, outcome, io)
            out = [row for row, ok in zip(rows_buf, outcome.passed) if ok]
            stats.actual_rows += len(out)
            return out

        for page_id, row in fetch_iter:
            pages_seen.add(int(page_id))
            rows_buf.append(row)
            page_ids.append(page_id)
            if len(rows_buf) >= chunk_size:
                ctx.checkpoint()
                out = flush()
                if out:
                    yield RowBatch(out)
                rows_buf, page_ids = [], []
        if rows_buf:
            out = flush()
            if out:
                yield RowBatch(out)
        stats.pages_touched = len(pages_seen)

    def _fetch_columnar(
        self,
        ctx: ExecutionContext,
        chunks: Iterator[tuple[Sequence[int], Sequence[int]]],
    ) -> Iterator[RowBatch]:
        """Columnar drive over ``(page_ids, row_positions)`` fetch chunks.

        The storage layer has already read each chunk's pages in fetch
        order (:meth:`~repro.storage.heap.DataFile.fetch_runs`); the
        chunk's column vectors are gathered from the data file's column
        cache by row position, evaluated with whole-vector kernels, and
        the fetch bundle hashes the witnessing rows' page ids in one
        vectorized step.  Checkpoints, charges and counter feeds match
        :meth:`_fetch_batches` chunk for chunk.
        """
        io = ctx.io
        compiled = BoundConjunction(
            self.residual, self.table.schema.column_names
        ).compile()
        short_circuit = not self.monitor_full_eval
        bundle = self.bundle
        stats = self.stats
        file_columns = self.table.data_file.file_columns()
        pages_seen: set[int] = set()
        for page_ids, positions in chunks:
            if len(page_ids) >= ctx.batch_rows:  # a full chunk, as in batch mode
                ctx.checkpoint()
            num_rows = len(page_ids)
            pages_seen.update(page_ids)
            io.charge_rows(num_rows)
            columns = vector.gather_columns(file_columns, positions)
            outcome = compiled.evaluate_columns(
                columns, num_rows, short_circuit=short_circuit
            )
            io.charge_predicates(outcome.evaluations)
            stats.predicate_evaluations += outcome.evaluations
            if bundle is not None:
                bundle.observe_fetch_columns(
                    vector.make_column(page_ids), outcome, io
                )
            selected = vector.mask_count(outcome.passed)
            stats.actual_rows += selected
            if selected == num_rows:
                yield RowBatch.from_columns(columns, num_rows=num_rows)
            elif selected:
                yield RowBatch.from_columns(
                    vector.take_columns(columns, outcome.passed), num_rows=selected
                )
        stats.pages_touched = len(pages_seen)


class IndexSeekFetch(_FetchResidualMixin, Operator):
    """Non-clustered index range seek followed by row fetches."""

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        index_name: str,
        low: Optional[tuple],
        high: Optional[tuple],
        residual: Conjunction,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        bundle: Optional[FetchMonitorBundle] = None,
        monitor_full_eval: bool = False,
    ) -> None:
        super().__init__()
        self.table = table
        self.index = table.index(index_name)
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.residual = residual
        self.bundle = bundle
        self.monitor_full_eval = monitor_full_eval
        self.stats.detail = (
            f"{table.name}.{index_name} seek "
            f"{'[' if low_inclusive else '('}{low}, {high}"
            f"{']' if high_inclusive else ')'} residual [{residual.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        bound = BoundConjunction(self.residual, self.table.schema.column_names)
        io = ctx.io
        pages_seen: set[int] = set()
        for _key, rid, _payload in self.index.seek_range(
            io, self.low, self.high, self.low_inclusive, self.high_inclusive
        ):
            page_id, row = self.table.fetch(io, rid)
            if int(page_id) not in pages_seen:  # new data page fetched
                ctx.checkpoint()
            pages_seen.add(int(page_id))
            io.charge_rows(1)
            outcome = bound.evaluate(
                row, short_circuit=not self.monitor_full_eval
            )
            io.charge_predicates(outcome.evaluations)
            self.stats.predicate_evaluations += outcome.evaluations
            if self.bundle is not None:
                self.bundle.observe_fetch(page_id, outcome, io)
            if outcome.passed:
                self.stats.actual_rows += 1
                yield row
        self.stats.pages_touched = len(pages_seen)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        seek = (self.low, self.high, self.low_inclusive, self.high_inclusive)
        if ctx.vectorized:
            runs = self.index.seek_runs(ctx.io, *seek)
            yield from self._fetch_index_runs(ctx, self.index, runs)
        else:
            entries = self.index.seek_range(ctx.io, *seek)
            yield from self._fetch_rids(ctx, (rid for _key, rid, _payload in entries))

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())


def in_list_probe_key(values: Iterable[Any]) -> Callable[[Any], Any]:
    """The sort key of the order an IN-list's values are probed in.

    Ascending value, so successive probes move forward through the
    index; ``repr`` when the values cannot be compared with each other.
    Rows leave the seek in this order, so shard merges use it too.
    """
    try:
        sorted(set(values))
    except TypeError:
        return repr
    return _value


def _value(value: Any) -> Any:
    return value


class IndexInListSeekFetch(_FetchResidualMixin, Operator):
    """IN-list seek: one equality probe per value, then fetch.

    The disjunctive equivalent of an Index Seek for ``col IN (v1..vk)``:
    values are probed in ascending order (:func:`in_list_probe_key`, so
    leaf access stays monotone) and every fetched row is guaranteed to
    satisfy the IN term, making the term *guaranteed* for monitoring
    purposes, exactly like a seek range.
    """

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        index_name: str,
        values: tuple,
        residual: Conjunction,
        bundle: Optional[FetchMonitorBundle] = None,
        monitor_full_eval: bool = False,
    ) -> None:
        super().__init__()
        self.table = table
        self.index = table.index(index_name)
        self.values = tuple(sorted(set(values), key=in_list_probe_key(values)))
        self.residual = residual
        self.bundle = bundle
        self.monitor_full_eval = monitor_full_eval
        self.stats.detail = (
            f"{table.name}.{index_name} IN ({len(self.values)} values) "
            f"residual [{residual.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        bound = BoundConjunction(self.residual, self.table.schema.column_names)
        io = ctx.io
        pages_seen: set[int] = set()
        for value in self.values:
            for _key, rid, _payload in self.index.seek_equal(io, value):
                page_id, row = self.table.fetch(io, rid)
                if int(page_id) not in pages_seen:
                    # First touch of a page is the cancellation boundary,
                    # matching the one-checkpoint-per-page contract.
                    ctx.checkpoint()
                pages_seen.add(int(page_id))
                io.charge_rows(1)
                outcome = bound.evaluate(
                    row, short_circuit=not self.monitor_full_eval
                )
                io.charge_predicates(outcome.evaluations)
                self.stats.predicate_evaluations += outcome.evaluations
                if self.bundle is not None:
                    self.bundle.observe_fetch(page_id, outcome, io)
                if outcome.passed:
                    self.stats.actual_rows += 1
                    yield row
        self.stats.pages_touched = len(pages_seen)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        io = ctx.io
        index = self.index
        if ctx.vectorized:
            # One seek per value, each with its own descent, run lazily.
            runs = chain.from_iterable(
                index.seek_runs(io, value, value) for value in self.values
            )
            yield from self._fetch_index_runs(ctx, index, runs)
        else:
            rids = (
                rid
                for value in self.values
                for _key, rid, _payload in index.seek_equal(io, value)
            )
            yield from self._fetch_rids(ctx, rids)

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())


class SeekSpec:
    """One index-range leg of an intersection plan."""

    __slots__ = ("index_name", "low", "high", "low_inclusive", "high_inclusive")

    def __init__(
        self,
        index_name: str,
        low: Optional[tuple],
        high: Optional[tuple],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> None:
        self.index_name = index_name
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive

    def __repr__(self) -> str:
        return f"SeekSpec({self.index_name}: {self.low}..{self.high})"


class IndexIntersectionFetch(_FetchResidualMixin, Operator):
    """Intersect the RID sets of two or more index seeks, then fetch.

    RIDs are fetched in (page, slot) order after the intersection — the
    standard engine behaviour, which also makes the fetch stream mildly
    page-clustered; the linear counters are order-insensitive either way.
    """

    engine_layer = "SE"

    def __init__(
        self,
        table: Table,
        seeks: list[SeekSpec],
        residual: Conjunction,
        bundle: Optional[FetchMonitorBundle] = None,
        monitor_full_eval: bool = False,
    ) -> None:
        super().__init__()
        if len(seeks) < 2:
            raise ValueError("index intersection needs at least two seeks")
        self.table = table
        self.seeks = seeks
        self.residual = residual
        self.bundle = bundle
        self.monitor_full_eval = monitor_full_eval
        self.stats.detail = (
            f"{table.name} intersect "
            + " & ".join(s.index_name for s in seeks)
            + f" residual [{residual.key()}]"
        )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.table.schema.column_names

    def _intersect_rids(self, io) -> list:
        """Run the seek legs, charge the RID hashing, return sorted RIDs."""
        rid_sets = []
        for spec in self.seeks:
            index = self.table.index(spec.index_name)
            rids = {
                rid
                for _key, rid, _payload in index.seek_range(
                    io, spec.low, spec.high, spec.low_inclusive, spec.high_inclusive
                )
            }
            rid_sets.append(rids)
        intersection = set.intersection(*rid_sets)
        # Hashing RIDs during the intersection is CPU work.
        io.charge_hashes(sum(len(s) for s in rid_sets))
        return sorted(intersection, key=lambda r: (r.page_id, r.slot))

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        io = ctx.io
        sorted_rids = self._intersect_rids(io)
        bound = BoundConjunction(self.residual, self.table.schema.column_names)
        pages_seen: set[int] = set()
        for rid in sorted_rids:
            page_id, row = self.table.fetch(io, rid)
            if int(page_id) not in pages_seen:
                # First touch of a page is the cancellation boundary,
                # matching the one-checkpoint-per-page contract.
                ctx.checkpoint()
            pages_seen.add(int(page_id))
            io.charge_rows(1)
            outcome = bound.evaluate(row, short_circuit=not self.monitor_full_eval)
            io.charge_predicates(outcome.evaluations)
            self.stats.predicate_evaluations += outcome.evaluations
            if self.bundle is not None:
                self.bundle.observe_fetch(page_id, outcome, io)
            if outcome.passed:
                self.stats.actual_rows += 1
                yield row
        self.stats.pages_touched = len(pages_seen)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        rids = self._intersect_rids(ctx.io)
        if not ctx.vectorized:
            yield from self._fetch_rids(ctx, rids)
            return
        # The sorted RIDs are one locator run; their leaves were read by
        # the seek legs.
        data_file = self.table.data_file
        locators = data_file.file_columns().locate(rids)
        chunks = data_file.fetch_runs(
            ctx.io, locators, [(0, len(rids))], ctx.batch_rows
        )
        yield from self._fetch_columnar(ctx, chunks)

    def finalize(self, ctx: ExecutionContext) -> None:
        if self.bundle is not None:
            ctx.observations.extend(self.bundle.finish())
