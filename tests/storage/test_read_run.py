"""Property tests: run-level fetch accounting against the per-RID loop.

Columnar index fetches read their data pages one run at a time
(:meth:`BufferPool.read_run` under :meth:`DataFile.fetch_runs`) and
charge a run's index entries together.  The per-RID loop kept in this
file is the reference: per seek, a descent, a leaf read on reaching each
leaf and one entry charge per entry, then one :meth:`BufferPool.access`
per row.  The properties generate ranges, IN-lists and intersections over
small hand-built heap and clustered tables, chunk sizes, pool capacities
small enough to force the per-access fallback, pre-warmed frames, shared
and isolated contexts and early stops, and check that both leave exactly
the same state: simulated times compared with ``==``, every counter, the
LRU order of the frames and the shared pool's statistics, and the
fetched pages, positions, rows and DPC observations.  The tables are
built without the synthetic generators, so the module also runs on the
pure-Python vector backend alone.
"""

from __future__ import annotations

import dataclasses
from itertools import chain, islice
from typing import Iterator, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.common.cancellation import CancellationToken
from repro.common.errors import QueryCancelled
from repro.common.rng import make_random
from repro.common.types import RID, FileId, PageId
from repro.core.monitors import FetchMonitorBundle
from repro.core.requests import AccessPathRequest
from repro.exec import vector
from repro.exec.base import ExecutionContext
from repro.exec.seeks import (
    IndexInListSeekFetch,
    IndexIntersectionFetch,
    IndexSeekFetch,
    SeekSpec,
)
from repro.sql.predicates import Comparison, Conjunction
from repro.sql.types import SqlType
from repro.storage.accounting import IOContext
from repro.storage.btree import BTreeIndex
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskParameters
from repro.storage.heap import DataFile

NUM_ROWS = 600
BATCH_ROWS = (1, 2, 73, 1024)
#: Pool capacities: 3 frames force the per-access fallback on nearly
#: every run, 20 on some, 10000 on none (each table has ~15 data pages
#: and each index ~13 leaves).
CAPACITIES = (3, 20, 10_000)
BACKENDS = ("numpy", "python") if vector.HAVE_NUMPY else ("python",)
#: Read rates that binary floating point cannot represent, so a bulk
#: charge computed as ``rate * n`` would differ from ``n`` single charges
#: (the default random-read rate, 1.0 ms, would hide that).
DISK = DiskParameters(random_read_ms=0.1, sequential_read_ms=0.07)
PROPERTY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build_database(capacity: int) -> Database:
    """A heap and a clustered table over the same rows, ~40 rows a page.

    ``a`` is a permutation of the unique key ``k`` and ``b`` small and
    skewed (long runs of equal keys).  Both indexes carry the padding, so
    a leaf holds ~48 entries and seeks cross many leaves.
    """
    rng = make_random(11, "test_read_run")
    rows = [
        (k, (k * 37) % NUM_ROWS, rng.choice((0, 0, 1, 2, 5)) + k // 100, "x" * (k % 5))
        for k in range(NUM_ROWS)
    ]
    rng.shuffle(rows)
    database = Database(f"runs{capacity}", buffer_pool_pages=capacity, disk_params=DISK)
    for name, clustered in (("heap", False), ("clus", True)):
        schema = TableSchema(
            name,
            [
                ColumnDef("k", SqlType.INT),
                ColumnDef("a", SqlType.INT),
                ColumnDef("b", SqlType.INT),
                ColumnDef("pad", SqlType.STR, width_bytes=150),
            ],
        )
        database.load_table(
            schema,
            rows,
            clustered_on=["k"] if clustered else None,
            indexes=[
                IndexDef(f"ix_{name}_{column}", name, (column,), included_columns=("pad",))
                for column in ("a", "b")
            ],
        )
    return database


DATABASES = {capacity: _build_database(capacity) for capacity in CAPACITIES}


# ---------------------------------------------------------------------------
# The per-RID reference
# ---------------------------------------------------------------------------


def _reference_seek(io: IOContext, index: BTreeIndex, *seek) -> Iterator[RID]:
    """One range seek, entry by entry, yielding each entry's RID."""
    io.charge_index_descent(1)
    start, stop = index.entry_span(*seek)
    # The entries themselves, read on a throwaway isolated context.
    entries = list(index.seek_range(IOContext(isolated=True), *seek))
    assert len(entries) == stop - start
    per_leaf = index.entries_per_page
    for position, (_key, rid, _payload) in enumerate(entries, start):
        if position == start or position % per_leaf == 0:
            index.buffer_pool.access(
                index.file_id,
                PageId(position // per_leaf),
                io,
                sequential=position > start,
            )
        io.charge_index_entries(1)
        yield rid


def _reference_fetch(
    io: IOContext, data_file: DataFile, rids, batch_rows: int
) -> Iterator[tuple[list[int], list[int]]]:
    """One data-page read per RID, in order, chunked every ``batch_rows``."""
    offsets = data_file.file_columns().page_offsets
    pages: list[int] = []
    positions: list[int] = []
    for rid in rids:
        data_file.buffer_pool.access(data_file.file_id, rid.page_id, io, sequential=False)
        pages.append(int(rid.page_id))
        positions.append(offsets[rid.page_id] + rid.slot)
        if len(pages) >= batch_rows:
            yield pages, positions
            pages, positions = [], []
    if pages:
        yield pages, positions


def _reference_batches(operator, ctx: ExecutionContext):
    """The operator's columnar drive fed by the per-RID reference."""
    io = ctx.io
    if isinstance(operator, IndexSeekFetch):
        seek = (operator.low, operator.high, operator.low_inclusive, operator.high_inclusive)
        rids = _reference_seek(io, operator.index, *seek)
    elif isinstance(operator, IndexInListSeekFetch):
        rids = chain.from_iterable(
            _reference_seek(io, operator.index, value, value, True, True)
            for value in operator.values
        )
    else:
        rids = iter(operator._intersect_rids(io))
    data_file = operator.table.data_file
    yield from operator._fetch_columnar(
        ctx, _reference_fetch(io, data_file, rids, ctx.batch_rows)
    )


# ---------------------------------------------------------------------------
# Strategies and state
# ---------------------------------------------------------------------------

_values = st.integers(min_value=-3, max_value=NUM_ROWS + 3)
_bound = st.one_of(st.none(), _values)
_seek = st.tuples(_bound, _bound, st.booleans(), st.booleans())


@st.composite
def fetch_cases(draw):
    kind = draw(st.sampled_from(("range", "in", "intersect")))
    column = draw(st.sampled_from(("a", "b")))
    if kind == "in":
        small = st.integers(-1, 12) if column == "b" else _values
        spec = tuple(draw(st.lists(small, min_size=1, max_size=6)))
    elif kind == "range":
        low, high, low_inclusive, high_inclusive = draw(_seek)
        if column == "b":  # b spans 0..11: keep the bounds inside it
            low = None if low is None else low % 13
            high = None if high is None else high % 13
        spec = (low, high, low_inclusive, high_inclusive)
    else:
        spec = (draw(_seek), draw(_seek))
    return {
        "table": draw(st.sampled_from(("heap", "clus"))),
        "kind": kind,
        "column": column,
        "spec": spec,
        "batch_rows": draw(st.sampled_from(BATCH_ROWS)),
        "capacity": draw(st.sampled_from(CAPACITIES)),
        "shared": draw(st.booleans()),
        "warm": draw(
            st.lists(st.tuples(st.booleans(), st.integers(0, 15)), max_size=12)
        ),
        "stop_after": draw(st.one_of(st.none(), st.integers(1, 8))),
        "residual": draw(
            st.sampled_from(
                ((), (Comparison("k", "<", 300),), (Comparison("b", ">=", 4),))
            )
        ),
        "requests": draw(st.sampled_from(((), ((),), ((0,),), ((), (0,))))),
    }


def _operator(case: dict, database: Database):
    table = database.table(case["table"])
    residual = Conjunction(case["residual"])
    bundle = None
    if case["requests"]:
        bundle = FetchMonitorBundle(table.name)
        for tag, indexes in enumerate(case["requests"]):
            if all(index < len(residual) for index in indexes):
                request = AccessPathRequest(
                    table.name, Conjunction((Comparison("k", ">=", -tag),))
                )
                bundle.add_request(request, indexes, 64)
    index_name = f"ix_{table.name}_{case['column']}"
    if case["kind"] == "range":
        low, high, low_inclusive, high_inclusive = case["spec"]
        return IndexSeekFetch(
            table, index_name, low, high, residual, low_inclusive, high_inclusive, bundle
        )
    if case["kind"] == "in":
        return IndexInListSeekFetch(table, index_name, case["spec"], residual, bundle)
    seeks = [
        SeekSpec(f"ix_{table.name}_{column}", *seek)
        for column, seek in zip(("a", "b"), case["spec"])
    ]
    return IndexIntersectionFetch(table, seeks, residual, bundle)


def _prepare(case: dict) -> tuple[Database, IOContext]:
    """A cold pool (or context), then the case's pre-warmed pages."""
    database = DATABASES[case["capacity"]]
    pool = database.buffer_pool
    pool.reset()
    io = database.new_io_context(isolated=not case["shared"])
    table = database.table(case["table"])
    index = table.index(f"ix_{table.name}_{case['column']}")
    for on_index, page in case["warm"]:
        file_id = index.file_id if on_index else table.data_file.file_id
        pool.access(file_id, PageId(page), io if not case["shared"] else IOContext())
    pool.reset_stats()
    return database, io


def _state(database: Database, io: IOContext, shared: bool) -> tuple:
    frames = database.buffer_pool._frames if shared else io.private_frames()
    return (
        io.io_ms,
        io.cpu_ms,
        io.random_reads,
        io.sequential_reads,
        io.pool_hits,
        io.evictions,
        list(frames),
        dataclasses.astuple(database.buffer_pool.stats),
    )


def _backends():
    for backend in BACKENDS:
        if backend == "python":
            with vector.use_python_backend():
                yield backend
        else:
            yield backend


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    pages=st.lists(st.integers(0, 12), max_size=60),
    warm=st.lists(st.integers(0, 12), max_size=12),
    capacity=st.integers(1, 16),
    shared=st.booleans(),
    sequential=st.booleans(),
)
def test_read_run_equals_access_per_page(pages, warm, capacity, shared, sequential):
    states = []
    for bulk in (False, True):
        pool = BufferPool(capacity)
        io = IOContext(DISK, isolated=not shared)
        for page in warm:
            pool.access(FileId(1), PageId(page), io)
        if bulk:
            pool.read_run(FileId(1), io, pages, sequential)
        else:
            for page in pages:
                pool.access(FileId(1), PageId(page), io, sequential)
        frames = pool._frames if shared else io.private_frames()
        states.append(
            (
                io.io_ms,
                io.random_reads,
                io.sequential_reads,
                io.pool_hits,
                io.evictions,
                list(frames),
                pool.stats,
            )
        )
    assert states[0] == states[1]


def _kernel_chunks(case: dict, database: Database, io: IOContext):
    table = database.table(case["table"])
    data_file = table.data_file
    index = table.index(f"ix_{table.name}_{case['column']}")
    batch_rows = case["batch_rows"]
    if case["kind"] == "intersect":
        rids = _intersection(case, database)
        locators = data_file.file_columns().locate(rids)
        return data_file.fetch_runs(io, locators, [(0, len(rids))], batch_rows)
    if case["kind"] == "range":
        runs = index.seek_runs(io, *case["spec"])
    else:
        values = IndexInListSeekFetch(table, index.name, case["spec"], Conjunction(())).values
        runs = chain.from_iterable(index.seek_runs(io, v, v) for v in values)
    locators = index.locators(data_file.file_columns())
    return data_file.fetch_runs(io, locators, runs, batch_rows, index_entries=True)


def _reference_chunks(case: dict, database: Database, io: IOContext):
    table = database.table(case["table"])
    index = table.index(f"ix_{table.name}_{case['column']}")
    if case["kind"] == "intersect":
        rids: Iterator[RID] = iter(_intersection(case, database))
    elif case["kind"] == "range":
        rids = _reference_seek(io, index, *case["spec"])
    else:
        values = IndexInListSeekFetch(table, index.name, case["spec"], Conjunction(())).values
        rids = chain.from_iterable(
            _reference_seek(io, index, v, v, True, True) for v in values
        )
    return _reference_fetch(io, table.data_file, rids, case["batch_rows"])


def _intersection(case: dict, database: Database) -> list[RID]:
    """The sorted RIDs an intersection fetches (computed uncharged)."""
    operator = _operator({**case, "kind": "intersect"}, database)
    return operator._intersect_rids(IOContext(isolated=True))


@PROPERTY_SETTINGS
@given(case=fetch_cases())
def test_fetch_runs_matches_per_rid_loop(case):
    results = []
    for make_chunks in (_reference_chunks, _kernel_chunks):
        database, io = _prepare(case)
        chunks = make_chunks(case, database, io)
        taken = [
            (list(pages), list(positions))
            for pages, positions in islice(chunks, case["stop_after"])
        ]
        chunks.close()
        results.append((taken, _state(database, io, case["shared"])))
    assert results[1] == results[0]


def _drive(case: dict, batches) -> tuple:
    database, io = _prepare(case)
    token = CancellationToken(case["stop_after"]) if case["stop_after"] else None
    ctx = ExecutionContext(
        database=database,
        io=io,
        batch_rows=case["batch_rows"],
        vectorized=True,
        cancellation=token,
    )
    operator = _operator(case, database)
    rows: list[tuple] = []
    observations: Optional[list] = None
    cancelled = False
    try:
        for batch in batches(operator, ctx):
            rows.extend(batch.rows)
        operator.finalize(ctx)
        observations = ctx.observations
    except QueryCancelled:
        cancelled = True
    stats = operator.stats
    progress = operator.bundle.progress() if operator.bundle is not None else None
    return (
        cancelled,
        rows,
        observations,
        progress,
        stats.pages_touched,
        stats.actual_rows,
        stats.predicate_evaluations,
        _state(database, io, case["shared"]),
    )


@PROPERTY_SETTINGS
@given(case=fetch_cases())
def test_fetch_operators_match_per_rid_loop(case):
    for _backend in _backends():
        reference = _drive(case, _reference_batches)
        kernel = _drive(case, lambda operator, ctx: operator.batches(ctx))
        assert kernel == reference


def test_in_list_probes_values_in_ascending_order(monkeypatch):
    """Leaf reads of an IN-list seek move forward through the index."""
    database = DATABASES[10_000]
    table = database.table("heap")
    index = table.index("ix_heap_a")
    operator = IndexInListSeekFetch(table, "ix_heap_a", (9, 10, 100, 2), Conjunction(()))
    assert operator.values == (2, 9, 10, 100)
    # ``a`` is unique, so value v is entry v: 100 lives on a later leaf.
    assert 100 // index.entries_per_page > 10 // index.entries_per_page
    leaves: list[int] = []
    access = BufferPool.access

    def recording_access(pool, file_id, page_id, io, sequential=False):
        if file_id == index.file_id:
            leaves.append(int(page_id))
        return access(pool, file_id, page_id, io, sequential)

    monkeypatch.setattr(BufferPool, "access", recording_access)
    for vectorized in (False, True):
        leaves.clear()
        ctx = ExecutionContext(
            database=database,
            io=database.new_io_context(isolated=True),
            vectorized=vectorized,
        )
        operator = IndexInListSeekFetch(
            table, "ix_heap_a", (9, 10, 100, 2), Conjunction(())
        )
        if vectorized:
            rows = [row for batch in operator.batches(ctx) for row in batch.rows]
        else:
            rows = list(operator.rows(ctx))
        assert [row[1] for row in rows] == [2, 9, 10, 100]
        assert len(leaves) == 4
        assert leaves == sorted(leaves)


def test_in_list_incomparable_values_fall_back_to_repr_order():
    table = DATABASES[10_000].table("heap")
    operator = IndexInListSeekFetch(table, "ix_heap_a", (3, "x", 1, 3), Conjunction(()))
    assert operator.values == tuple(sorted((3, "x", 1), key=repr))
