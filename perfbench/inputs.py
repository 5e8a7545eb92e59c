"""Seeded inputs for every workload, each carrying its exact answer.

The synthetic table's columns ``c2``..``c5`` are permutations of
``0..n-1`` (see :mod:`repro.workloads.permutations`), so the generator
knows every answer without running a query:

* ``SELECT count(padding) FROM t WHERE ci < v`` counts exactly ``v`` rows;
* ``SELECT count(t.padding) FROM t1, t WHERE t1.c1 < v AND t1.ci = t.ci``
  also counts exactly ``v``: ``t1.c1`` is the identity, and each of the
  ``v`` outer values of ``t1.ci`` matches exactly one row of ``t``.

Selectivities are stratified: the range is cut into equal strata and one
value is drawn uniformly inside each, so a seed moves every cut a little
but no seed can crowd the workload onto one side of a plan crossover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.rng import make_random
from repro.optimizer.injection import InjectionSet
from repro.optimizer.optimizer import JoinQuery, Query, SingleTableQuery
from repro.sql.predicates import Comparison, Conjunction, JoinEquality
from repro.workloads.queries import GeneratedQuery

COLUMNS = ("c2", "c3", "c4", "c5")

#: The Fig. 6 / Fig. 8 tables (rows of ``t``; Fig. 8 adds ``t1``).
FIG_ROWS = 60_000
#: The served table: Fig. 6-shaped, small enough for ~100 requests/s.
SERVE_ROWS = 20_000

#: Distinct texts in the serve pool, and the Zipf exponent of the draws.
SERVE_POOL_SIZE = 256
ZIPF_EXPONENT = 1.0
#: Every ``REMEMBER_EVERY``-th served request harvests its feedback.
REMEMBER_EVERY = 10


@dataclass(frozen=True)
class Op:
    """One operation: a query, its SQL text and its exact answer."""

    op_id: str
    sql: str
    query: Query
    answer: int
    #: Exact cardinalities the paper loop injects (§V-B step 1).  The
    #: flags below apply when the operation is served or replayed; the
    #: paper loop always harvests.
    cardinalities: tuple[tuple[str, Conjunction, float], ...] = ()
    use_feedback: bool = False
    remember: bool = False
    #: Position in the served request stream (-1 outside it).
    index: int = -1

    def generated(self) -> GeneratedQuery:
        """The operation as the paper harness takes it."""
        return GeneratedQuery(
            query=self.query,
            column="",
            selectivity=0.0,
            exact_cardinalities=list(self.cardinalities),
            label=self.op_id,
        )

    def injections(self) -> InjectionSet:
        return self.generated().injections()


@dataclass
class Inputs:
    """What one workload runs, generated from its seed."""

    #: Rows of ``t`` (and of ``t1`` for the join workload).
    num_rows: int
    with_copy: bool
    #: The paper-loop queries, or the serve text pool.
    ops: list[Op]
    #: Served request stream (indices into ``ops``); empty for the loops.
    stream: list[int] = field(default_factory=list)

    def database_kwargs(self, seed: int) -> dict:
        return {"num_rows": self.num_rows, "seed": seed, "with_copy": self.with_copy}

    def request(self, index: int) -> Op:
        """The ``index``-th served request (the stream wraps around)."""
        op = self.ops[self.stream[index % len(self.stream)]]
        return Op(
            op_id=f"r{index}",
            sql=op.sql,
            query=op.query,
            answer=op.answer,
            use_feedback=True,
            remember=index % REMEMBER_EVERY == REMEMBER_EVERY - 1,
            index=index,
        )


def _stratified(rng, strata: int, low: float, high: float, num_rows: int) -> list[int]:
    width = (high - low) / strata
    return [
        max(1, int(round((low + (k + rng.random()) * width) * num_rows)))
        for k in range(strata)
    ]


def scan_op(column: str, value: int, label: str, remember: bool = False) -> Op:
    predicate = Conjunction((Comparison(column, "<", value),))
    return Op(
        op_id=label,
        sql=f"SELECT count(padding) FROM t WHERE {column} < {value}",
        query=SingleTableQuery(table="t", predicate=predicate, count_column="padding"),
        answer=value,
        cardinalities=(("t", predicate, float(value)),),
        remember=remember,
    )


def join_op(column: str, value: int, label: str, remember: bool = False) -> Op:
    predicate = Conjunction((Comparison("c1", "<", value),))
    return Op(
        op_id=label,
        sql=(
            f"SELECT count(t.padding) FROM t1, t "
            f"WHERE t1.c1 < {value} AND t1.{column} = t.{column}"
        ),
        query=JoinQuery(
            join_predicate=JoinEquality("t1", column, "t", column),
            predicates={"t1": predicate},
            count_column="t.padding",
        ),
        answer=value,
        cardinalities=(("t1", predicate, float(value)),),
        remember=remember,
    )


def fig6_inputs(seed: int, num_rows: int = FIG_ROWS, per_column: int = 16) -> Inputs:
    """§V-B single-table loop: ``per_column`` cuts per column at 1-10%."""
    rng = make_random(seed, "perfbench", "fig6-scan")
    ops = [
        scan_op(column, value, f"{column}#{k}", remember=True)
        for column in COLUMNS
        for k, value in enumerate(_stratified(rng, per_column, 0.01, 0.10, num_rows))
    ]
    return Inputs(num_rows=num_rows, with_copy=False, ops=ops)


def fig8_inputs(seed: int, num_rows: int = FIG_ROWS, per_column: int = 12) -> Inputs:
    """Fig. 8 join loop: outer ``t1.c1`` cuts at 0.5-10% per join column."""
    rng = make_random(seed, "perfbench", "fig8-join")
    ops = [
        join_op(column, value, f"join-{column}#{k}", remember=True)
        for column in COLUMNS
        for k, value in enumerate(_stratified(rng, per_column, 0.005, 0.10, num_rows))
    ]
    return Inputs(num_rows=num_rows, with_copy=True, ops=ops)


def serve_inputs(
    seed: int,
    num_rows: int = SERVE_ROWS,
    pool_size: int = SERVE_POOL_SIZE,
    stream_length: int = 50_000,
) -> Inputs:
    """A Fig. 6-shaped text pool and a Zipf-skewed request stream over it
    (the same for both serve workloads).

    Popularity is balanced by design so that a seed cannot make the hot
    texts all cheap or all expensive: ranks cycle through the columns,
    and the k-th most popular text of a column takes the stratum at the
    bit-reversed position of k, so the hot texts spread evenly over the
    selectivity range.  The seed draws the cut inside each stratum, the
    data and the request stream.
    """
    rng = make_random(seed, "perfbench", "serve")
    per_column = pool_size // len(COLUMNS)
    bits = per_column.bit_length() - 1
    if per_column != 1 << bits:
        raise ValueError(f"texts per column must be a power of two, got {per_column}")
    cuts = {
        column: _stratified(rng, per_column, 0.01, 0.10, num_rows) for column in COLUMNS
    }
    ops = []
    for rank in range(per_column * len(COLUMNS)):
        column = COLUMNS[rank % len(COLUMNS)]
        k = rank // len(COLUMNS)
        stratum = (int(f"{k:0{bits}b}"[::-1], 2) + per_column // 2) % per_column
        ops.append(scan_op(column, cuts[column][stratum], f"{column}#{stratum}"))
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ops))]
    stream = rng.choices(range(len(ops)), weights=weights, k=stream_length)
    return Inputs(num_rows=num_rows, with_copy=False, ops=ops, stream=stream)


def make_inputs(workload: str, seed: int, quick: bool = False) -> Inputs:
    """The seeded inputs of ``workload``; ``quick`` shrinks them for the
    self-test."""
    if workload == "fig6-scan":
        return fig6_inputs(seed, *((4_000, 2) if quick else ()))
    if workload == "fig8-join":
        return fig8_inputs(seed, *((4_000, 2) if quick else ()))
    return serve_inputs(seed, *((4_000, 16) if quick else ()))
