"""Property tests: chunked columnar scans and fetches against the row drive.

The columnar drive evaluates one kernel per ~``batch_rows``-row chunk
and then commits the chunk page by page.  These properties generate
conjunctions, monitor bundles (exact, DPSample and bit-vector requests),
chunk sizes and cancellation points over small hand-built heap and
clustered tables, and check that the columnar drive leaves exactly the
state the row drive leaves — on both vector backends.  The tables are
built without the synthetic generators, so the module also runs on a
host without NumPy (the pure-Python backend alone).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import ColumnDef, Database, IndexDef, TableSchema
from repro.common.cancellation import CancellationToken
from repro.common.errors import QueryCancelled
from repro.core.bitvector import BitVectorFilter
from repro.core.dpsample import BernoulliPageSampler
from repro.core.monitors import FetchMonitorBundle, ScanMonitorBundle
from repro.core.probabilistic import LinearCounter
from repro.core.requests import AccessPathRequest
from repro.exec import vector
from repro.exec.base import ExecutionContext
from repro.exec.scans import ClusteredRangeScan, SeqScan
from repro.exec.seeks import IndexSeekFetch
from repro.sql.predicates import Between, Comparison, Conjunction, InList
from repro.sql.types import SqlType

NUM_ROWS = 600
BATCH_ROWS = (1, 2, 73, 100, 1024)
BACKENDS = ("numpy", "python") if vector.HAVE_NUMPY else ("python",)
PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build_database() -> Database:
    """A heap and a clustered table over the same rows, ~40 rows a page.

    ``k`` is unique, ``a`` a permutation of it, ``b`` small and skewed
    (so pages pass wholly, partly or not at all) and ``n`` NULL-bearing
    (a list column on either backend).
    """
    rng = random.Random(7)
    rows = [
        (
            k,
            (k * 37) % NUM_ROWS,
            rng.choice((0, 0, 1, 2, 3, 5, 8)) + k // 150,
            None if k % 7 == 3 else k % 11,
            "x" * (k % 3),
        )
        for k in range(NUM_ROWS)
    ]
    rng.shuffle(rows)
    database = Database("chunked", buffer_pool_pages=10_000)
    for name, clustered in (("heap", False), ("clus", True)):
        schema = TableSchema(
            name,
            [
                ColumnDef("k", SqlType.INT),
                ColumnDef("a", SqlType.INT),
                ColumnDef("b", SqlType.INT),
                ColumnDef("n", SqlType.INT),
                ColumnDef("pad", SqlType.STR, width_bytes=150),
            ],
        )
        database.load_table(
            schema,
            rows,
            clustered_on=["k"] if clustered else None,
            indexes=[IndexDef(f"ix_{name}_a", name, ("a",))],
        )
    return database


DATABASE = _build_database()


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_values = st.integers(min_value=-5, max_value=NUM_ROWS + 5)
_small = st.integers(min_value=-1, max_value=12)

terms = st.one_of(
    st.builds(
        Comparison,
        st.sampled_from(("k", "a")),
        st.sampled_from(("<", "<=", "=", ">=", ">", "!=")),
        _values,
    ),
    st.builds(
        Comparison,
        st.sampled_from(("b", "n")),
        st.sampled_from(("<", "<=", "=", ">=", ">", "!=")),
        _small,
    ),
    st.tuples(st.sampled_from(("k", "a")), _values, _values).map(
        lambda t: Between(t[0], min(t[1], t[2]), max(t[1], t[2]))
    ),
    st.builds(
        InList,
        st.sampled_from(("b", "n")),
        st.lists(_small, min_size=1, max_size=4),
    ),
)


@dataclass
class MonitorSpec:
    """How to build one scan's monitor bundle (fresh for every run)."""

    exact: list[tuple[int, ...]] = field(default_factory=list)
    sampled: list[tuple[int, ...]] = field(default_factory=list)
    bitvectors: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    fraction: float = 1.0
    seed: int = 0

    def build(self, table: str, num_query_terms: int) -> ScanMonitorBundle:
        bundle = ScanMonitorBundle(
            table, num_query_terms, BernoulliPageSampler(self.fraction, self.seed)
        )
        requests = iter(range(100))
        for indexes in self.exact:
            bundle.add_expression_request(_request(table, next(requests)), indexes, True)
        for indexes in self.sampled:
            bundle.add_expression_request(
                _request(table, next(requests)), indexes, False
            )
        for position, members in self.bitvectors:
            bit_filter = BitVectorFilter(64, seed=self.seed)
            bit_filter.insert_all(members)
            bundle.add_bitvector_request(
                _request(table, next(requests)), position, bit_filter
            )
        return bundle


def _request(table: str, tag: int) -> AccessPathRequest:
    return AccessPathRequest(table, Conjunction((Comparison("k", ">=", -tag),)))


@st.composite
def scan_cases(draw):
    monitor_terms = draw(st.lists(terms, max_size=4))
    num_query_terms = draw(st.integers(0, len(monitor_terms)))
    positions = list(range(len(monitor_terms)))
    spec = None
    if draw(st.booleans()) or len(monitor_terms) == 0:
        subsets = st.lists(st.sampled_from(positions), unique=True).map(tuple)
        query_subsets = st.lists(
            st.sampled_from(positions[:num_query_terms] or [0]), unique=True
        ).map(tuple)
        spec = MonitorSpec(
            exact=draw(st.lists(query_subsets, max_size=2)) if num_query_terms else [],
            sampled=draw(st.lists(subsets, max_size=2)) if positions else [],
            bitvectors=draw(
                st.lists(
                    st.tuples(
                        st.integers(0, 3),
                        st.lists(_small, max_size=3).map(tuple),
                    ),
                    max_size=2,
                )
            ),
            fraction=draw(st.sampled_from((0.3, 1.0))),
            seed=draw(st.integers(0, 3)),
        )
    table = draw(st.sampled_from(("heap", "clus")))
    scan_range = None
    if table == "clus" and draw(st.booleans()):
        low = draw(st.one_of(st.none(), _values.map(lambda v: (v,))))
        high = draw(st.one_of(st.none(), _values.map(lambda v: (v,))))
        scan_range = (low, high, draw(st.booleans()), draw(st.booleans()))
    return {
        "table": table,
        "range": scan_range,
        "monitor": Conjunction(tuple(monitor_terms)),
        "query": Conjunction(tuple(monitor_terms[:num_query_terms])),
        "spec": spec,
        "batch_rows": draw(st.sampled_from(BATCH_ROWS)),
        "cancel_after": draw(st.one_of(st.none(), st.integers(1, 20))),
    }


# ---------------------------------------------------------------------------
# Drives
# ---------------------------------------------------------------------------


@dataclass
class Run:
    rows: list[tuple]
    cancelled: bool
    observations: Optional[list]
    progress: Optional[list]
    pages_touched: int
    actual_rows: int
    predicate_evaluations: int
    resume_key: Any
    reads: tuple[int, int, int]
    cpu_ms: float


def _scan(case: dict, spec: Optional[MonitorSpec]):
    table = DATABASE.table(case["table"])
    bundle = (
        spec.build(table.name, len(case["query"])) if spec is not None else None
    )
    if case["range"] is None:
        return SeqScan(table, case["query"], bundle, case["monitor"])
    low, high, low_inclusive, high_inclusive = case["range"]
    return ClusteredRangeScan(
        table,
        low,
        high,
        case["query"],
        low_inclusive,
        high_inclusive,
        bundle,
        case["monitor"],
    )


def _drive(operator, mode: str, batch_rows: int, cancel_after: Optional[int]) -> Run:
    io = DATABASE.new_io_context(isolated=True)
    token = CancellationToken(cancel_after) if cancel_after else None
    ctx = ExecutionContext(
        database=DATABASE,
        io=io,
        batch_rows=batch_rows,
        vectorized=(mode == "columnar"),
        cancellation=token,
    )
    if mode != "row" and hasattr(operator, "resume_tracking"):
        operator.resume_tracking = True
        operator.resume_key_position = 0
    rows: list[tuple] = []
    cancelled = False
    observations = None
    try:
        if mode == "row":
            rows.extend(operator.rows(ctx))
        else:
            for batch in operator.batches(ctx):
                rows.extend(batch.rows)
        operator.finalize(ctx)
        observations = ctx.observations
    except QueryCancelled:
        cancelled = True
    bundle = operator.bundle
    stats = operator.stats
    return Run(
        rows=rows,
        cancelled=cancelled,
        observations=observations,
        progress=bundle.progress() if bundle is not None else None,
        pages_touched=stats.pages_touched,
        actual_rows=stats.actual_rows,
        predicate_evaluations=stats.predicate_evaluations,
        resume_key=getattr(operator, "resume_key", None),
        reads=(io.sequential_reads, io.random_reads, io.pool_hits),
        cpu_ms=io.cpu_ms,
    )


def _backends():
    for backend in BACKENDS:
        if backend == "python":
            with vector.use_python_backend():
                yield backend
        else:
            yield backend


def _assert_same(reference: Run, run: Run, reads: bool = True) -> None:
    assert run.cancelled == reference.cancelled
    assert run.rows == reference.rows
    assert run.observations == reference.observations
    assert run.progress == reference.progress
    assert run.pages_touched == reference.pages_touched
    assert run.actual_rows == reference.actual_rows
    assert run.predicate_evaluations == reference.predicate_evaluations
    assert run.cpu_ms == pytest.approx(reference.cpu_ms, rel=1e-9)
    if reads:
        assert run.reads == reference.reads


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(case=scan_cases())
def test_chunked_scan_matches_row_drive(case):
    spec = case["spec"]
    # An unmonitored full scan commits whole chunks (nothing is
    # page-granular), so it stops at chunk boundaries: see
    # test_unmonitored_seq_scan_stops_at_chunk_boundary.  Every other scan
    # replays each page boundary.
    unmonitored_seq_scan = spec is None and case["range"] is None
    cancel_after = None if unmonitored_seq_scan else case["cancel_after"]
    reference = _drive(_scan(case, spec), "row", case["batch_rows"], cancel_after)
    for _backend in _backends():
        columnar = _drive(
            _scan(case, spec), "columnar", case["batch_rows"], cancel_after
        )
        # The row drive of a range scan reads one page ahead of the page
        # it commits, so a stopped run's reads are compared against the
        # page-at-a-time batch drive, which is also the resume-key
        # reference (the row drive does not track one).
        _assert_same(reference, columnar, reads=not reference.cancelled)
        per_page = _drive(_scan(case, spec), "batch", case["batch_rows"], cancel_after)
        assert columnar.reads == per_page.reads
        assert columnar.resume_key == per_page.resume_key


@PROPERTY_SETTINGS
@given(case=scan_cases(), cancel_after=st.integers(1, 20))
def test_unmonitored_seq_scan_stops_at_chunk_boundary(case, cancel_after):
    case = {**case, "spec": None, "range": None}
    batch_rows = case["batch_rows"]
    data_file = DATABASE.table(case["table"]).data_file
    chunk_pages = [len(chunk.page_ids) for chunk in data_file.column_chunks(batch_rows)]
    for _backend in _backends():
        columnar = _drive(_scan(case, None), "columnar", batch_rows, cancel_after)
        if cancel_after > len(chunk_pages):
            assert not columnar.cancelled
            continue
        # Stopped at its cancel_after-th checkpoint, which follows the
        # reads of chunk number cancel_after: the chunks before it are
        # committed, exactly as far as a page-at-a-time drive stopped on
        # the first page after them.
        committed_pages = sum(chunk_pages[: cancel_after - 1])
        per_page = _drive(_scan(case, None), "batch", batch_rows, committed_pages + 1)
        assert columnar.cancelled and per_page.cancelled
        assert columnar.rows == per_page.rows
        assert columnar.pages_touched == per_page.pages_touched == committed_pages
        assert columnar.actual_rows == per_page.actual_rows
        assert columnar.predicate_evaluations == per_page.predicate_evaluations
        assert columnar.resume_key == per_page.resume_key
        assert columnar.reads == (sum(chunk_pages[:cancel_after]), 0, 0)


@st.composite
def seek_cases(draw):
    residual = Conjunction(tuple(draw(st.lists(terms, max_size=3))))
    low = draw(st.one_of(st.none(), _values))
    high = draw(st.one_of(st.none(), _values))
    positions = list(range(len(residual)))
    requests = draw(
        st.lists(
            st.lists(st.sampled_from(positions or [0]), unique=True).map(tuple)
            if positions
            else st.just(()),
            max_size=2,
        )
    )
    return {
        "table": draw(st.sampled_from(("heap", "clus"))),
        "seek": (low, high, draw(st.booleans()), draw(st.booleans())),
        "residual": residual,
        "requests": requests,
        "num_bits": draw(st.sampled_from((8, 64, 1000))),
        "full_eval": draw(st.booleans()),
        "batch_rows": draw(st.sampled_from(BATCH_ROWS)),
    }


def _seek(case: dict) -> IndexSeekFetch:
    table = DATABASE.table(case["table"])
    bundle = None
    if case["requests"]:
        bundle = FetchMonitorBundle(table.name)
        for tag, indexes in enumerate(case["requests"]):
            bundle.add_request(_request(table.name, tag), indexes, case["num_bits"])
    low, high, low_inclusive, high_inclusive = case["seek"]
    return IndexSeekFetch(
        table,
        f"ix_{table.name}_a",
        low,
        high,
        case["residual"],
        low_inclusive,
        high_inclusive,
        bundle,
        monitor_full_eval=case["full_eval"],
    )


@PROPERTY_SETTINGS
@given(case=seek_cases())
def test_chunked_index_seek_matches_row_drive(case):
    reference = _drive(_seek(case), "row", case["batch_rows"], None)
    for _backend in _backends():
        _assert_same(reference, _drive(_seek(case), "columnar", case["batch_rows"], None))


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=300),
    num_bits=st.integers(1, 2000),
    seed=st.integers(0, 5),
    split=st.integers(0, 300),
)
def test_observe_many_equals_repeated_observe(values, num_bits, seed, split):
    for _backend in _backends():
        one_at_a_time = LinearCounter(num_bits, seed)
        for value in values:
            one_at_a_time.observe(value)
        vectorized = LinearCounter(num_bits, seed)
        vectorized.observe_many(vector.make_column(values[:split]))
        vectorized.observe_many(vector.make_column(values[split:]))
        assert vectorized._bits == one_at_a_time._bits
        assert vectorized.bits_set == one_at_a_time.bits_set
        assert vectorized.observations == one_at_a_time.observations
        assert vectorized.estimate() == one_at_a_time.estimate()
