"""The four workloads, their measured windows and their metrics.

An untraced run sets up :data:`SETUP_REPEATS` times (reporting the median
set-up time), then measures one window of ``--seconds`` and reports the
end-to-end metrics.  A traced run sets up once, settles, measures
alternating untraced and traced slices (their throughput difference is
the tracing overhead), replays the first operations serially through the public
layer APIs with every layer wrapped (per-layer timings and self-time
shares come from this replay), and, where the workload has no worker
pool of its own, serves a few operations through a one-worker pool (the
tier probe) so the service and worker layers are measured on every
workload.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import repro.harness.methodology as methodology
import repro.service.marshal as marshal
import repro.sql as sql
from repro.core.planner import MonitorConfig
from repro.engine import Engine
from repro.harness.methodology import default_requests
from repro.harness.reporting import percentile
from repro.workloads import build_synthetic_database

from perfbench.inputs import COLUMNS, Inputs, Op, make_inputs
from perfbench.metrics import (
    PER_LAYER,
    SELF_TIME_LAYERS,
    geometric_mean,
    mean,
    peak_rss_mb,
    ratio,
)
from perfbench.serve import CLIENTS, WARMUP_REQUESTS, Server, closed_loop, reference, reply_ok
from perfbench.tracing import Tracer, shares

SETUP_REPEATS = 5
EXEC_MODE = "columnar"
#: Fig. 8 monitors its join inner with 30% DPSample page sampling.
FIG8_MONITOR = MonitorConfig(dpsample_fraction=0.3)

#: Operations replayed serially for the per-layer split, per workload.
REPLAY_OPS = {"fig6-scan": 24, "fig8-join": 16, "serve-feedback": 96, "serve-workers": 96}
#: Operations served through the one-worker tier probe.
PROBE_OPS = 16
#: Served requests the ``sim_*`` metrics are computed over: the first
#: this many of the measured window, in stream order, so the figures
#: depend on the seed and plan choice but not on throughput.  The
#: slowest rate seen on the reference host was about 90 requests/s
#: (serve-feedback), so windows of 20 s or more cover the set; a
#: shorter window is topped up untimed.
SIM_REQUESTS = 1500
#: Untraced/traced slice pairs in a traced run, alternated so that state
#: drift on serve-feedback falls on both sides of the overhead figure.
TRACE_SLICES = 2


@dataclass
class Window:
    """One measured stretch of a workload."""

    wall_s: float
    latencies_s: list[float]
    failed: int
    #: Per-workload details the metrics are computed from.
    records: list[Any] = field(default_factory=list)
    #: Feedback-store epoch advances during the window (served workloads).
    epoch_bumps: int = 0
    #: The service's plan-cache hits and lookups during the window.
    cache_hits: int = 0
    cache_lookups: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    @property
    def qps(self) -> float:
        return ratio(self.attempted, self.wall_s)

    @classmethod
    def merged(cls, windows: list["Window"]) -> "Window":
        return cls(
            sum(w.wall_s for w in windows),
            [s for w in windows for s in w.latencies_s],
            sum(w.failed for w in windows),
            [r for w in windows for r in w.records],
            sum(w.epoch_bumps for w in windows),
            sum(w.cache_hits for w in windows),
            sum(w.cache_lookups for w in windows),
        )


EMPTY = Window(0.0, [], 0)


# ----------------------------------------------------------------------
# The paper loops
# ----------------------------------------------------------------------
@contextlib.contextmanager
def captured_results():
    """Collect every ``QueryResult`` the paper harness's runs return
    inside the block (plain, monitored and, if the plan changed, P')."""
    results = []
    inner = methodology.execute

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        results.append(result)
        return result

    methodology.execute = capture
    try:
        yield results
    finally:
        methodology.execute = inner


@dataclass
class LoopRun:
    """One query through :func:`repro.harness.methodology.evaluate_query`."""

    op: Op
    outcome: methodology.EvaluationOutcome
    results: list

    @property
    def sim_key(self) -> tuple[float, float, float]:
        o = self.outcome
        return (o.time_original_ms, o.time_monitored_ms, o.time_improved_ms)

    @property
    def rows_ok(self) -> bool:
        return all(result.rows == [(self.op.answer,)] for result in self.results)


class LoopBench:
    """fig6-scan / fig8-join: the §V-B loop over a fixed query list."""

    workers = 0
    serves = False

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name, self.seed, self.quick = name, seed, quick
        self.config = FIG8_MONITOR if name == "fig8-join" else MonitorConfig()
        #: Simulated (T, T_monitored, T') of each query's first run: later
        #: runs must repeat them.
        self.first: dict[str, tuple[float, float, float]] = {}
        self.database = None
        self.inputs: Optional[Inputs] = None
        self.problems: list[str] = []

    def run_op(self, op: Op) -> LoopRun:
        with captured_results() as results:
            outcome = methodology.evaluate_query(
                self.database, op.generated(), monitor_config=self.config, exec_mode=EXEC_MODE
            )
        return LoopRun(op, outcome, results)

    def setup(self) -> float:
        self.database = None
        self.inputs = make_inputs(self.name, self.seed, self.quick)
        start = time.perf_counter()
        self.database = build_synthetic_database(**self.inputs.database_kwargs(self.seed))
        build_s = time.perf_counter() - start
        # Warm-up: one query per column fills the lazy per-column caches.
        per_column = len(self.inputs.ops) // len(COLUMNS)
        for op in self.inputs.ops[::per_column]:
            if not self._check(self.run_op(op)):
                self.problems.append(f"warm-up query {op.op_id} failed its checks")
        return build_s

    def _check(self, run: LoopRun) -> bool:
        first = self.first.setdefault(run.op.op_id, run.sim_key)
        return run.rows_ok and run.sim_key == first

    def window(self, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        """Whole passes over the query list until ``seconds`` have passed."""
        ops = self.inputs.ops
        latencies, runs, failed = [], [], 0
        start = time.perf_counter()
        for number in itertools.count():
            op = ops[number % len(ops)]
            began = time.perf_counter()
            if tracer is None:
                run = self.run_op(op)
            else:
                with tracer.span("loop.op", request_id=f"{op.op_id}/{number}"):
                    run = self.run_op(op)
            latencies.append(time.perf_counter() - began)
            runs.append(run)
            failed += not self._check(run)
            if (number + 1) % len(ops) == 0 and time.perf_counter() - start >= seconds:
                break
        return Window(time.perf_counter() - start, latencies, failed, runs)

    def settle(self) -> Window:
        """One whole pass."""
        return self.window(0)

    def complete_sim_set(self, window: Window) -> Window:
        """The ``sim_*`` set is every query's first run: already complete."""
        return EMPTY

    def sim_metrics(self, window: Window, extra: Window) -> dict[str, float]:
        firsts = list(self.first.values())
        return {
            "sim_elapsed_ms_mean": mean([improved for _, _, improved in firsts]),
            "sim_speedup_mean": geometric_mean([plain / improved for plain, _, improved in firsts]),
            "sim_overhead_max_pct": 100 * max(
                (monitored - plain) / plain for plain, monitored, _ in firsts
            ),
        }

    def window_layer_metrics(self, window: Window) -> dict[str, float]:
        runs: list[LoopRun] = window.records
        stats = [result.runstats for run in runs for result in run.results]
        observations = [obs for run in runs for obs in run.outcome.observations]
        return {
            "storage.physical_reads": mean([s.physical_reads for s in stats]),
            "storage.random_reads": mean([s.random_reads for s in stats]),
            "storage.pool_hit_ratio": ratio(
                sum(s.pool_hits for s in stats), sum(s.logical_reads for s in stats)
            ),
            "feedback.answered_ratio": ratio(
                sum(1 for obs in observations if obs.answered), len(observations)
            ),
            # The loop absorbs each query's observations into its own
            # InjectionSet: there is no feedback store, so no epoch.
            "feedback.epoch_bumps": 0.0,
            "reopt.trips": 0.0,
            "reopt.false_trip_ratio": 0.0,
        }

    def plancache_hit_ratio(self, traced: Window, replayed: Replay) -> float:
        """The loop never consults a plan cache; the replay's cache sees
        every (distinct) query once."""
        return replayed.plancache_hit_ratio

    def replay_ops(self) -> list[Op]:
        return self.inputs.ops[: REPLAY_OPS[self.name]]

    def probe_ops(self) -> list[Op]:
        return self.inputs.ops[:PROBE_OPS]

    def close(self) -> None:
        self.database = None


# ----------------------------------------------------------------------
# The served workloads
# ----------------------------------------------------------------------
class ServeBench:
    """serve-feedback / serve-workers: a closed loop of :data:`CLIENTS`."""

    serves = True

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name, self.seed, self.quick = name, seed, quick
        self.workers = CLIENTS if name == "serve-workers" else 0
        self.server: Optional[Server] = None
        self.inputs: Optional[Inputs] = None
        self.answers: dict[str, dict[str, Any]] = {}
        self.next_request = 0
        self.spawn_s: list[float] = []
        self.problems: list[str] = []

    @property
    def database(self):
        return self.server.database

    def _requests(self):
        while True:
            op = self.inputs.request(self.next_request)
            self.next_request += 1
            yield op

    def setup(self) -> float:
        self.close()
        self.inputs = make_inputs(self.name, self.seed, self.quick)
        start = time.perf_counter()
        database = build_synthetic_database(**self.inputs.database_kwargs(self.seed))
        build_s = time.perf_counter() - start
        start = time.perf_counter()
        self.server = Server(database, self.inputs, self.seed, self.workers)
        self.next_request = 0
        requests = self._requests()
        # One request per worker first: the pool is up once each answered.
        first = max(1, self.workers)
        closed_loop(self.server.service, itertools.islice(requests, first), first)
        self.spawn_s.append(time.perf_counter() - start)
        closed_loop(
            self.server.service, itertools.islice(requests, WARMUP_REQUESTS - first), CLIENTS
        )
        return build_s

    def window(
        self,
        seconds: float,
        tracer: Optional[Tracer] = None,
        count: Optional[int] = None,
    ) -> Window:
        """Serve the stream for ``seconds``, or its next ``count`` requests."""
        engine = self.server.engine
        epoch, cache = engine.feedback.epoch, engine.plan_cache.stats
        hits, lookups = cache.hits, cache.lookups
        requests = self._requests()
        if count is not None:
            requests = itertools.islice(requests, count)
        served, wall = closed_loop(self.server.service, requests, CLIENTS, seconds, tracer)
        fresh = [reply.op for reply in served if reply.op.sql not in self.answers]
        self.answers.update(reference(self.database, fresh))
        failed = sum(1 for reply in served if not reply_ok(reply, self.answers))
        return Window(
            wall,
            [r.latency_s for r in served],
            failed,
            served,
            engine.feedback.epoch - epoch,
            cache.hits - hits,
            cache.lookups - lookups,
        )

    def settle(self) -> Window:
        """One warm-up's worth of requests."""
        return self.window(math.inf, count=WARMUP_REQUESTS)

    def complete_sim_set(self, window: Window) -> Window:
        """Serve, untimed, whatever of the window's first
        :data:`SIM_REQUESTS` requests the window did not reach."""
        missing = self._sim_end(window) - self.next_request
        return self.window(math.inf, count=missing) if missing > 0 else EMPTY

    def _sim_end(self, window: Window) -> int:
        """One past the last stream index of the window's ``sim_*`` set."""
        first = min(reply.op.index for reply in window.records)
        return first + (64 if self.quick else SIM_REQUESTS)

    def sim_metrics(self, window: Window, extra: Window) -> dict[str, float]:
        end = self._sim_end(window)
        ok = [reply for reply in window.records + extra.records if reply.ok and reply.op.index < end]
        texts = {reply.op.sql for reply in ok}
        return {
            "sim_elapsed_ms_mean": mean([reply.stats.elapsed_ms for reply in ok]),
            "sim_speedup_mean": geometric_mean(
                [
                    self.answers[reply.op.sql]["monitored_ms"] / reply.stats.elapsed_ms
                    for reply in ok
                ]
            ),
            "sim_overhead_max_pct": 100 * max(
                (self.answers[t]["monitored_ms"] - self.answers[t]["plain_ms"])
                / self.answers[t]["plain_ms"]
                for t in texts
            ),
        }

    def window_layer_metrics(self, window: Window) -> dict[str, float]:
        stats = [reply.stats for reply in window.records if reply.ok]
        trips = sum(s.reopt_tripped for s in stats)
        return {
            "storage.physical_reads": mean([s.random_reads + s.sequential_reads for s in stats]),
            "storage.random_reads": mean([s.random_reads for s in stats]),
            "storage.pool_hit_ratio": ratio(
                sum(s.pool_hits for s in stats), sum(s.logical_reads for s in stats)
            ),
            "feedback.answered_ratio": ratio(
                sum(s.answered for s in stats), sum(s.observations for s in stats)
            ),
            "feedback.epoch_bumps": ratio(window.epoch_bumps, len(window.records)),
            "reopt.trips": ratio(trips, len(stats)),
            "reopt.false_trip_ratio": ratio(sum(s.reopt_false_trip for s in stats), trips),
        }

    def service_details(self, window: Window) -> dict[str, Any]:
        """Absolute counts behind the ratios, for the run's record."""
        stats = [reply.stats for reply in window.records if reply.ok]
        cache = self.server.engine.plan_cache.stats.snapshot()
        return {
            "requests": len(window.records),
            "reopt_trips": sum(s.reopt_tripped for s in stats),
            "reopt_false_trips": sum(s.reopt_false_trip for s in stats),
            "window_plan_cache": {"hits": window.cache_hits, "lookups": window.cache_lookups},
            "service_plan_cache": cache,
            "feedback_epoch": self.server.engine.feedback.epoch,
        }

    def plancache_hit_ratio(self, traced: Window, replayed: Replay) -> float:
        """The service's own plan-cache counters over the traced slices
        (0 on serve-workers, whose coordinator never plans)."""
        return ratio(traced.cache_hits, traced.cache_lookups)

    def replay_ops(self) -> list[Op]:
        return [self.inputs.request(i) for i in range(REPLAY_OPS[self.name])]

    def probe_ops(self) -> list[Op]:
        return [self.inputs.request(i) for i in range(PROBE_OPS)]

    def close(self) -> None:
        if self.server is not None:
            self.problems.extend(self.server.close())
            self.server = None


def make_bench(name: str, seed: int, quick: bool):
    if name.startswith("fig"):
        return LoopBench(name, seed, quick)
    return ServeBench(name, seed, quick)


def service_metrics(replies) -> dict[str, float]:
    ok = [reply for reply in replies if reply.ok]
    return {
        "service.queue_wait_ms": mean([r.queue_wait_ms for r in ok]),
        "service.service_ms": mean([r.service_ms for r in ok]),
        "service.transport_ms": mean([1000 * r.latency_s - r.service_ms for r in ok]),
    }


# ----------------------------------------------------------------------
# Traced phases shared by every workload
# ----------------------------------------------------------------------
@dataclass
class Replay:
    wall_s: float
    since: float
    until: float
    failed: int
    attempted: int
    plancache_hit_ratio: float
    observation_bytes: list[int]
    monitored_logical_reads: int


def replay(database, ops: list[Op], tracer: Tracer) -> Replay:
    """Serve ``ops`` one at a time through the public layer APIs.

    Each operation is parsed, planned through the session (plan cache and
    feedback of one fresh engine), run plain and monitored in columnar and
    in batch mode (the same plan each time), harvested when the operation
    asks to remember, and its observations marshalled as the worker tier
    would ship them.
    """
    engine = Engine(database)
    failed, sizes, reads = 0, [], 0
    since = time.perf_counter()
    with tracer.patched():
        for op in ops:
            with tracer.span("replay.op", request_id=op.op_id):
                session = engine.session(injections=op.injections())
                query = sql.parse_query(op.sql)
                plan = session.optimize(query, use_feedback=op.use_feedback)
                requests = default_requests(database, query)
                runs = []
                for label, monitors, mode in (
                    ("plain", (), EXEC_MODE),
                    ("monitored", requests, EXEC_MODE),
                    ("batch_plain", (), "batch"),
                    ("batch_monitored", requests, "batch"),
                ):
                    with tracer.variant(label):
                        runs.append(
                            session.run_plan(
                                query,
                                plan,
                                requests=monitors,
                                io=database.new_io_context(isolated=True),
                                exec_mode=mode,
                            )
                        )
                monitored = runs[1]
                if op.remember:
                    session.remember(monitored)
                payload = marshal.marshal_observations(monitored.observations)
                marshal.unmarshal_observations(payload)
            sizes.append(len(json.dumps(payload)))
            reads += monitored.result.runstats.logical_reads
            expected = [(op.answer,)]
            failed += not (query == op.query and all(r.result.rows == expected for r in runs))
    until = time.perf_counter()
    hit_ratio = engine.plan_cache.stats.hit_rate
    engine.shutdown()
    return Replay(until - since, since, until, failed, len(ops), hit_ratio, sizes, reads)


def replay_metrics(result: Replay, tracer: Tracer) -> dict[str, float]:
    def per_call(name: str, scale: float) -> float:
        return scale * mean(tracer.durations(name, result.since, result.until))

    plain, monitored, batch_plain, batch_monitored = (
        tracer.durations(f"exec.{variant}", result.since, result.until)
        for variant in ("plain", "monitored", "batch_plain", "batch_monitored")
    )
    metrics = {
        "sql.parse_us": per_call("sql.parse", 1e6),
        "lifecycle.plan_us": 1e6
        * mean(tracer.self_durations("lifecycle.plan", result.since, result.until)),
        "planlint.lint_us": per_call("planlint.lint", 1e6),
        "planner.build_us": per_call("planner.build", 1e6),
        "optimizer.optimize_ms": per_call("optimizer.optimize", 1e3),
        "optimizer.calls": ratio(
            len(tracer.durations("optimizer.optimize", result.since, result.until)),
            result.attempted,
        ),
        "exec.plain_ms": 1e3 * mean(plain),
        "exec.monitored_ms": 1e3 * mean(monitored),
        "exec.monitor_wall_ratio": ratio(sum(monitored), sum(plain)),
        "exec.columnar_over_batch": ratio(
            sum(plain) + sum(monitored), sum(batch_plain) + sum(batch_monitored)
        ),
        "exec.pages_per_s": ratio(result.monitored_logical_reads, sum(monitored)),
        "feedback.harvest_us": per_call("feedback.harvest", 1e6),
        "marshal.observation_bytes": mean(result.observation_bytes),
        "marshal.encode_us": per_call("marshal.encode", 1e6),
    }
    layer_shares = shares(
        tracer.self_times(result.since, result.until), result.wall_s, SELF_TIME_LAYERS
    )
    metrics.update({f"self.{layer}_share": value for layer, value in layer_shares.items()})
    return metrics


@dataclass
class Probe:
    spawn_s: float
    restarts: int
    failed: int
    attempted: int
    #: Replies after the one that waited for the spawn (service timings).
    timed: list
    problems: list[str]


def probe(bench, ops: list[Op]) -> Probe:
    """Serve ``ops`` through a one-worker pool over the workload's data."""
    start = time.perf_counter()
    server = Server(bench.database, bench.inputs, bench.seed, workers=1)
    replies, _ = closed_loop(server.service, iter(ops[:1]), 1)
    spawn_s = time.perf_counter() - start
    warm, _ = closed_loop(server.service, iter(ops[1:]), 1)
    restarts = server.pool.snapshot()["restarts"]
    problems = server.close()
    failed = sum(1 for r in replies + warm if not (r.ok and r.rows == [[r.op.answer]]))
    return Probe(spawn_s, restarts, failed, len(replies + warm), warm, problems)


def end_to_end(
    bench, window: Window, extra: Window, setup_s: float, peak_rss: float
) -> dict[str, float]:
    latencies_ms = [1000 * s for s in window.latencies_s]
    failed, attempted = window.failed + extra.failed, window.attempted + extra.attempted
    metrics = {
        "setup_s": setup_s,
        "throughput_qps": window.qps,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "success_rate": 1 - ratio(failed, attempted),
    }
    metrics.update(bench.sim_metrics(window, extra))
    metrics["peak_rss_mb"] = peak_rss
    return metrics


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def run_untraced(bench, seconds: float, repeats: int):
    setups = []
    for _ in range(repeats):
        start = time.perf_counter()
        bench.setup()
        setups.append(time.perf_counter() - start)
    window = bench.window(seconds)
    extra = bench.complete_sim_set(window)
    bench.close()
    metrics = end_to_end(bench, window, extra, statistics.median(setups), peak_rss_mb(bench.workers))
    details = {
        "setups_s": setups,
        "sim_topup_ops": extra.attempted,
        "peak_rss_method": "own peak + workers x largest reaped child's peak",
    }
    return metrics, window.attempted + extra.attempted, window.failed + extra.failed, details


def run_traced(bench, seconds: float):
    build_s = bench.setup()
    # Settle first, so no slice pays the remaining lazy set-up.
    settle = bench.settle()
    tracer = Tracer()
    slice_s = seconds / (2 * TRACE_SLICES)
    untraced_slices, traced_slices = [], []
    for _ in range(TRACE_SLICES):
        untraced_slices.append(bench.window(slice_s))
        with tracer.patched():
            traced_slices.append(bench.window(slice_s, tracer))
    untraced, traced = Window.merged(untraced_slices), Window.merged(traced_slices)
    layer = bench.window_layer_metrics(traced)
    replayed = replay(bench.database, bench.replay_ops(), tracer)
    layer.update(replay_metrics(replayed, tracer))
    layer["lifecycle.plancache_hit_ratio"] = bench.plancache_hit_ratio(traced, replayed)
    attempted = settle.attempted + untraced.attempted + traced.attempted + replayed.attempted
    failed = settle.failed + untraced.failed + traced.failed + replayed.failed
    details = {
        "untraced_qps": untraced.qps,
        "traced_qps": traced.qps,
        "replay_ops": replayed.attempted,
        "replay_wall_s": replayed.wall_s,
        "replay_plancache_hit_ratio": replayed.plancache_hit_ratio,
        "batch_monitor_wall_ratio": ratio(
            sum(tracer.durations("exec.batch_monitored", replayed.since, replayed.until)),
            sum(tracer.durations("exec.batch_plain", replayed.since, replayed.until)),
        ),
    }
    if bench.workers:
        layer["workers.spawn_s"] = statistics.median(bench.spawn_s)
        layer["workers.restarts"] = bench.server.pool.snapshot()["restarts"]
    else:
        tier = probe(bench, bench.probe_ops())
        layer["workers.spawn_s"] = tier.spawn_s
        layer["workers.restarts"] = tier.restarts
        attempted += tier.attempted
        failed += tier.failed
        bench.problems.extend(tier.problems)
        details["probe_ops"] = tier.attempted
    # Service timings come from the real load where there is one.
    layer.update(service_metrics(traced.records if bench.serves else tier.timed))
    if bench.serves:
        details.update(bench.service_details(traced))
    layer["latency_p99_ms"] = percentile([1000 * s for s in untraced.latencies_s], 99)
    layer["workloads.build_s"] = build_s
    layer["trace.overhead_pct"] = 100 * ratio(untraced.qps - traced.qps, untraced.qps)
    bench.close()
    metrics = {metric.name: layer[metric.name] for metric in PER_LAYER}
    return metrics, attempted, failed, details, tracer
