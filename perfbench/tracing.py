"""Spans at layer boundaries, recorded from outside the program.

The program has no tracing of its own yet, so the benchmark wraps each
layer's public entry points for the duration of a traced phase
(:meth:`Tracer.patched`) and restores them afterwards.  A span is
``(id, name, start, end, parent, request_id)``; spans live in memory and
are written out once, when the run ends (:meth:`Tracer.dump`).  A span's
layer is its name up to the first dot.

Parents are tracked per thread, so spans opened on the service's
executor threads nest among themselves but are not linked to the
client-side request span that caused them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence


class Tracer:
    """In-memory span recorder plus the layer patch set."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        request_id = request_id if request_id is not None else inherited
        stack.append((span_id, request_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, request_id))

    def record(
        self, name: str, start: float, end: float, request_id: Optional[str] = None
    ) -> None:
        """Add a span timed by the caller (no parent: for coroutines that
        interleave on one thread, where the per-thread stack would lie)."""
        self.spans.append((next(self._ids), name, start, end, None, request_id))

    @contextlib.contextmanager
    def variant(self, label: str) -> Iterator[None]:
        """Name the execution spans opened inside: ``exec.<label>``."""
        previous = getattr(self._local, "variant", None)
        self._local.variant = label
        try:
            yield
        finally:
            self._local.variant = previous

    def _exec_name(self) -> str:
        return f"exec.{getattr(self._local, 'variant', None) or 'run'}"

    def wrap(self, function: Callable, name: str | Callable[[], str]) -> Callable:
        resolve = name if callable(name) else (lambda: name)

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(resolve()):
                return function(*args, **kwargs)

        return traced

    # -- the layer patch set -------------------------------------------
    def targets(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, span name)`` for every wrapped entry point.

        Module-level functions are wrapped in the module that looks them
        up: the paper harness (``repro.harness.methodology``) and the
        lifecycle runner each call their own imported names.  Methods are
        wrapped on their class.
        """
        import repro.harness.methodology as methodology
        import repro.lifecycle.runner as runner
        import repro.reopt.episode as episode
        import repro.service.marshal as marshal
        import repro.sql as sql
        from repro.core.feedback import FeedbackStore
        from repro.optimizer.injection import InjectionSet
        from repro.optimizer.optimizer import Optimizer
        from repro.session import Session

        execute_name = self._exec_name
        return [
            (sql, "parse_query", "sql.parse"),
            (runner.QueryLifecycle, "plan", "lifecycle.plan"),
            (runner.QueryLifecycle, "run_plan", "lifecycle.run_plan"),
            (Optimizer, "optimize", "optimizer.optimize"),
            (Session, "lint", "planlint.lint"),
            (methodology, "build_executable", "planner.build"),
            (runner, "build_executable", "planner.build"),
            (methodology, "execute", execute_name),
            (runner, "execute", execute_name),
            (FeedbackStore, "record_observations", "feedback.harvest"),
            (FeedbackStore, "to_injections", "feedback.lower"),
            (InjectionSet, "absorb_observations", "feedback.absorb"),
            (episode, "run_with_reopt", "reopt.episode"),
            (marshal, "marshal_observations", "marshal.encode"),
            (marshal, "unmarshal_observations", "marshal.decode"),
        ]

    @contextlib.contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attribute, name in self.targets():
                original = owner.__dict__[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(original, name))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- analysis -------------------------------------------------------
    def durations(self, name: str, since: float, until: float) -> list[float]:
        """Durations (s) of the spans called ``name`` inside ``[since, until]``."""
        return [
            end - start
            for _, n, start, end, _, _ in self.spans
            if n == name and since <= start and end <= until
        ]

    def _self(self, since: float, until: float) -> list[tuple[str, float]]:
        """``(name, self seconds)`` for spans inside ``[since, until]``: a
        span's duration minus the part its children cover."""
        window = [s for s in self.spans if since <= s[2] and s[3] <= until]
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in window:
            if parent is not None:
                covered[parent] += end - start
        return [(name, end - start - covered[span_id]) for span_id, name, start, end, _, _ in window]

    def self_durations(self, name: str, since: float, until: float) -> list[float]:
        return [seconds for n, seconds in self._self(since, until) if n == name]

    def self_times(self, since: float, until: float) -> dict[str, float]:
        """Seconds of self time per layer inside ``[since, until]``."""
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in self._self(since, until):
            totals[name.split(".", 1)[0]] += seconds
        return dict(totals)

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps({"meta": meta}) + "\n")
            for span_id, name, start, end, parent, request_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_s": start - self.origin,
                            "end_s": end - self.origin,
                            "parent": parent,
                            "request_id": request_id,
                        }
                    )
                    + "\n"
                )


def shares(self_times: dict[str, float], wall: float, layers: Sequence[str]) -> dict[str, float]:
    """Each layer's self time as a share of ``wall``, plus ``outside``."""
    result = {layer: (self_times.get(layer, 0.0) / wall if wall else 0.0) for layer in layers}
    inside = sum(v for k, v in self_times.items() if k in layers)
    result["outside"] = (wall - inside) / wall if wall else 0.0
    return result
