"""ShardCoordinator: the Engine facade, scatter-gather, failure settling."""

from __future__ import annotations

import threading

import pytest

from repro.common.cancellation import CancellationToken
from repro.common.errors import EngineError, ShardError
from repro.core.requests import AccessPathRequest
from repro.engine.engine import WorkloadItem
from repro.exec import execute
from repro.exec.merge import ShardStream, gather_for_plan
from repro.optimizer import InListSeekPlan, SingleTableQuery
from repro.session import Session
from repro.shard import ShardCoordinator
from repro.sql import Comparison, InList, conjunction_of
from repro.workloads import build_synthetic_database

NUM_SHARDS = 4


@pytest.fixture(scope="module")
def database():
    return build_synthetic_database(num_rows=6_000, seed=23)


@pytest.fixture()
def coordinator(database):
    coordinator = ShardCoordinator(database, num_shards=NUM_SHARDS)
    yield coordinator
    coordinator.shutdown(drain=True, timeout=5.0)


def _query(column: str = "c2", value: int = 700) -> SingleTableQuery:
    return SingleTableQuery(
        "t", conjunction_of(Comparison(column, "<", value)), "padding"
    )


def _no_worker_threads() -> bool:
    return not any(
        thread.name.startswith("shard-worker-")
        for thread in threading.enumerate()
    )


class TestExecution:
    def test_rows_match_a_serial_engine(self, database, coordinator):
        query = _query()
        serial = Session(database).run(query)
        sharded = coordinator.execute(WorkloadItem(query=query))
        assert sharded.result.columns == serial.result.columns
        assert sharded.result.rows == serial.result.rows
        assert len(sharded.shard_results) == NUM_SHARDS

    def test_io_counters_sum_and_elapsed_is_makespan(self, coordinator):
        sharded = coordinator.execute(WorkloadItem(query=_query(value=5_000)))
        per_shard = [run.result.runstats for run in sharded.shard_results]
        merged = sharded.result.runstats
        assert merged.logical_reads == sum(s.logical_reads for s in per_shard)
        assert merged.elapsed_ms >= max(s.elapsed_ms for s in per_shard)

    def test_plan_cache_is_shared_across_the_fanout(self, coordinator):
        session = coordinator.session()
        for _ in range(3):
            coordinator.execute(WorkloadItem(query=_query()), session=session)
        stats = coordinator.plan_cache.stats
        assert stats.misses == 1
        assert stats.hits == 2

    def test_shard_engines_never_plan(self, coordinator):
        coordinator.execute(WorkloadItem(query=_query()))
        for engine in coordinator.engines:
            assert engine.plan_cache is None

    def test_remember_bumps_the_global_epoch_exactly_once(self, coordinator):
        query = _query()
        request = AccessPathRequest("t", query.predicate)
        coordinator.execute(
            WorkloadItem(query=query, requests=(request,), remember=True)
        )
        assert coordinator.feedback.epoch == 1
        for store in (
            coordinator.feedback.shard_store(i) for i in range(NUM_SHARDS)
        ):
            assert store.epoch <= 1  # per-shard stores never race ahead

    def test_run_plan_does_not_harvest(self, coordinator):
        query = _query()
        session = coordinator.session()
        plan = session.optimize(query)
        request = AccessPathRequest("t", query.predicate)
        coordinator.run_plan(query, plan, requests=(request,))
        assert coordinator.feedback.epoch == 0


class TestFailureSettling:
    def test_one_failing_shard_cancels_siblings_and_reraises(
        self, database
    ):
        coordinator = ShardCoordinator(database, num_shards=NUM_SHARDS)
        try:
            query = _query(value=5_000)
            session = coordinator.session()
            plan = session.optimize(query)

            def explode(*args, **kwargs):
                raise RuntimeError("disk on fire")

            coordinator.engines[1].execute_plan = explode  # type: ignore[method-assign]
            token = CancellationToken()
            with pytest.raises(RuntimeError, match="disk on fire"):
                coordinator.run_plan(query, plan, cancellation=token)
            # The failing worker cancelled the shared token so siblings
            # stopped at their next checkpoint...
            assert token.cancelled
            # ...and the gather settled every thread before re-raising.
            assert _no_worker_threads()
            assert coordinator.active_executions == 0
        finally:
            coordinator.shutdown(drain=True, timeout=5.0)

    def test_missing_result_without_error_is_refused(self, database):
        coordinator = ShardCoordinator(database, num_shards=2)
        try:
            query = _query()
            session = coordinator.session()
            plan = session.optimize(query)
            coordinator.engines[0].execute_plan = (  # type: ignore[method-assign]
                lambda *args, **kwargs: None
            )
            with pytest.raises(ShardError, match="no result and no error"):
                coordinator.run_plan(query, plan)
        finally:
            coordinator.shutdown(drain=True, timeout=5.0)


class TestLifecycle:
    def test_shutdown_cascades_and_rejects_new_work(self, database):
        coordinator = ShardCoordinator(database, num_shards=2)
        assert not coordinator.closed
        assert coordinator.shutdown(drain=True, timeout=5.0)
        assert coordinator.closed
        for engine in coordinator.engines:
            assert engine.closed
        with pytest.raises(EngineError):
            coordinator.execute(WorkloadItem(query=_query()))
        with pytest.raises(EngineError):
            coordinator.session()

    def test_no_active_executions_after_a_run(self, coordinator):
        coordinator.execute(WorkloadItem(query=_query()))
        assert coordinator.active_executions == 0
        assert _no_worker_threads()

    def test_report_mentions_shape_and_cache(self, coordinator):
        coordinator.execute(WorkloadItem(query=_query()))
        report = coordinator.report()
        assert f"shards: {NUM_SHARDS} (range partitioning)" in report
        assert "plan-cache:" in report


def test_in_list_merge_follows_the_probe_order(database):
    """Shard streams of an IN-list seek merge in the order a single
    engine probes the values: ascending, not by ``repr``."""
    plan = InListSeekPlan(
        "t", "ix_c2", InList("c2", (9, 10, 100, 2)), conjunction_of()
    )
    shard_rows = ([(2,), (10,)], [(2,), (9,), (100,)])
    streams = [
        ShardStream(index, rows, ("c2",)) for index, rows in enumerate(shard_rows)
    ]
    merged = execute(gather_for_plan(plan, streams, database), database)
    assert merged.rows == [(2,), (2,), (9,), (10,), (100,)]
