"""Closed-loop serving: ``QueryService`` in-process or over a worker pool.

Each client holds one request in flight and sends the next only when the
reply lands, like DBA or analytics callers waiting on an answer.  Every
request runs columnar with ``use_feedback`` and ``reopt`` set; every
:data:`~perfbench.inputs.REMEMBER_EVERY`-th also harvests its feedback.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.engine import Engine, WorkloadItem
from repro.harness.methodology import default_requests
from repro.service import QueryService, WorkerPool, WorkerSpec
from repro.service.protocol import QueryRequest

from perfbench.inputs import Inputs, Op

#: Closed-loop clients, admission slots and pool workers: ``nproc`` on
#: the 2-core reference host.
CLIENTS = 2
#: Requests served before timing starts (plan caches, column caches and,
#: on the worker tier, every worker's first reply).
WARMUP_REQUESTS = 32


@dataclass(frozen=True)
class ReplyStats:
    """The parts of a reply's ``runstats`` the metrics read.  Replies keep
    only these, so the benchmark's own memory barely grows with the
    number of requests a window serves."""

    elapsed_ms: float
    random_reads: int
    sequential_reads: int
    logical_reads: int
    pool_hits: int
    observations: int
    answered: int
    reopt_tripped: bool
    reopt_false_trip: bool

    @classmethod
    def of(cls, runstats: dict) -> "ReplyStats":
        episode = (runstats.get("lifecycle") or {}).get("reopt") or {}
        return cls(
            elapsed_ms=runstats["elapsed_ms"],
            random_reads=runstats["random_reads"],
            sequential_reads=runstats["sequential_reads"],
            logical_reads=runstats["logical_reads"],
            pool_hits=runstats["pool_hits"],
            observations=len(runstats["page_counts"]),
            answered=sum(1 for obs in runstats["page_counts"] if obs["answered"]),
            reopt_tripped=bool(episode.get("tripped")),
            reopt_false_trip=bool(episode.get("false_trip")),
        )


@dataclass
class Served:
    """One request as the client saw it."""

    op: Op
    latency_s: float
    ok: bool
    rows: Any
    service_ms: float
    queue_wait_ms: float
    stats: Optional[ReplyStats]


class Server:
    """A service (and optional worker pool) over one database."""

    def __init__(self, database, inputs: Inputs, seed: int, workers: int) -> None:
        self.database = database
        self.engine = Engine(database)
        self.pool: Optional[WorkerPool] = None
        if workers:
            spec = WorkerSpec(
                "repro.workloads:build_synthetic_database",
                inputs.database_kwargs(seed),
            )
            self.pool = WorkerPool(spec, num_workers=workers, engine=self.engine)
        self.service = QueryService(
            self.engine,
            max_in_flight=CLIENTS,
            max_queue_depth=4 * CLIENTS,
            worker_pool=self.pool,
        )

    def close(self) -> list[str]:
        """Shut the service (and pool) down; returns anything leaked."""
        asyncio.run(self.service.shutdown())
        problems = []
        if self.service.telemetry.leaked_slots():
            problems.append(f"leaked slots: {self.service.telemetry.leaked_slots()}")
        if self.pool is not None and self.pool.leaked_workers():
            problems.append(f"leaked workers: {self.pool.leaked_workers()}")
        return problems


def request_for(op: Op) -> QueryRequest:
    return QueryRequest(
        sql=op.sql,
        request_id=op.op_id,
        exec_mode="columnar",
        use_feedback=op.use_feedback,
        remember=op.remember,
        monitor=True,
        # Served requests run under reopt exactly when they read feedback;
        # the loops' probe operations do neither.
        reopt=op.use_feedback,
    )


def closed_loop(
    service: QueryService,
    ops,
    clients: int,
    seconds: float = float("inf"),
    tracer=None,
) -> tuple[list[Served], float]:
    """Serve ``ops`` (an iterator) for ``seconds`` or until it runs dry.

    Returns the replies in completion order and the wall time.  With a
    tracer, each request is recorded as a ``service.request`` span.
    """
    served: list[Served] = []

    async def client() -> None:
        while time.perf_counter() < deadline:
            op = next(ops, None)
            if op is None:
                return
            start = time.perf_counter()
            response = await service.handle(request_for(op))
            end = time.perf_counter()
            if tracer is not None:
                tracer.record("service.request", start, end, op.op_id)
            served.append(
                Served(
                    op=op,
                    latency_s=end - start,
                    ok=response.ok,
                    rows=response.rows if response.ok else response.error,
                    service_ms=response.service_ms,
                    queue_wait_ms=response.queue_wait_ms,
                    stats=ReplyStats.of(response.runstats) if response.ok else None,
                )
            )

    async def drive() -> None:
        await asyncio.gather(*(client() for _ in range(clients)))

    begin = time.perf_counter()
    deadline = begin + seconds
    asyncio.run(drive())
    return served, time.perf_counter() - begin


def reference(database, ops: list[Op]) -> dict[str, dict[str, Any]]:
    """Serial, feedback-free answers and simulated times per SQL text.

    A fresh engine runs each distinct text plain and monitored, one query
    at a time: the reference every served reply is checked against.
    """
    engine = Engine(database)
    answers: dict[str, dict[str, Any]] = {}
    for op in ops:
        if op.sql in answers:
            continue
        requests = tuple(default_requests(database, op.query))
        monitored = engine.execute(
            WorkloadItem(query=op.query, requests=requests, exec_mode="columnar")
        )
        plain = engine.execute(WorkloadItem(query=op.query, exec_mode="columnar"))
        answers[op.sql] = {
            "rows": [list(row) for row in monitored.result.rows],
            "plain_rows": [list(row) for row in plain.result.rows],
            "monitored_ms": monitored.result.elapsed_ms,
            "plain_ms": plain.result.elapsed_ms,
        }
    engine.shutdown()
    return answers


def reply_ok(reply: Served, answers: dict[str, dict[str, Any]]) -> bool:
    """A reply is correct when it succeeded and matches both the exact
    answer and the serial reference."""
    expected = [[reply.op.answer]]
    ref = answers[reply.op.sql]
    return (
        reply.ok
        and reply.rows == expected
        and ref["rows"] == expected
        and ref["plain_rows"] == expected
    )
