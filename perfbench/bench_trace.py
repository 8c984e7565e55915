"""Benchmark-owned tracing of the program's layers.

Nothing under ``src/`` records spans.  For a traced run the benchmark
wraps the public entry point of each layer (and a few methods next to
them) with :meth:`Tracer.wrap`, which records one :class:`Span` per call:
name, start, end, the span that was current when the call began, and —
where the call carries one — the request id.  Spans stay in memory and
are written out when the run ends.

Parents are tracked with a :class:`contextvars.ContextVar`, which asyncio
tasks inherit.  Threads do not, so :class:`TracedExecutor` replaces the
service's thread pools and runs each task in the submitter's context.
Spans recorded in another process (the server child) or on another
connection (a replica behind the cluster coordinator) start with no
parent; :func:`analyze` attaches each of them to the innermost span of
the same request id whose interval encloses it.  ``time.perf_counter``
reads the system-wide monotonic clock on Linux, so spans from the
benchmark process and the server child share one time line.

A layer's self time is its span's duration minus the part of that
interval covered by its children.  The self time of the dispatcher
spans — ``engine.query``, ``server.handle`` and ``coordinator.handle`` —
is time inside a request that no instrumented layer accounts for, and is
reported as the ``unattributed`` row.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Spans whose self time is reported as ``unattributed``.
DISPATCHERS = ("engine.query", "server.handle", "coordinator.handle")

#: The engine kernels that actually execute a maxflow run.
KERNELS = ("persistent", "vectorized", "push_relabel", "object")


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str | None = None
    attrs: dict[str, Any] | None = None

    def as_list(self) -> list:
        return [
            self.sid, self.name, self.start, self.end, self.parent,
            self.rid, self.attrs,
        ]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """An in-memory span recorder."""

    def __init__(self, id_offset: int = 0) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(id_offset + 1)

    def record(self, name: str, start: float, end: float, rid: str) -> None:
        """Record a root span measured outside :meth:`wrap` (a client request)."""
        self.spans.append(Span(next(self._ids), name, start, end, None, rid))

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        rid: Callable[[tuple, dict, Any], str | None] | None = None,
        attrs: Callable[[tuple, dict, Any], dict | None] | None = None,
    ) -> Callable:
        """Wrap a function or coroutine function so each call is a span.

        ``rid`` and ``attrs`` receive ``(args, kwargs, result)`` after the
        call (``result`` is ``None`` when it raised).
        """
        spans = self.spans
        ids = self._ids

        def finish(sid, parent, start, args, kwargs, result):
            end = time.perf_counter()
            spans.append(
                Span(
                    sid, name, start, end, parent,
                    rid(args, kwargs, result) if rid else None,
                    attrs(args, kwargs, result) if attrs else None,
                )
            )

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                parent = _CURRENT.get()
                sid = next(ids)
                token = _CURRENT.set(sid)
                result = None
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    _CURRENT.reset(token)
                    finish(sid, parent, start, args, kwargs, result)
        else:
            def wrapper(*args, **kwargs):
                parent = _CURRENT.get()
                sid = next(ids)
                token = _CURRENT.set(sid)
                result = None
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    _CURRENT.reset(token)
                    finish(sid, parent, start, args, kwargs, result)

        return functools.wraps(fn)(wrapper)

    def run_in_worker(self, queued: float, fn: Callable, args, kwargs):
        """Run one thread-pool task as a ``workers.run`` span."""
        parent = _CURRENT.get()
        sid = next(self._ids)
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            self.spans.append(
                Span(
                    sid, "workers.run", start, time.perf_counter(), parent,
                    attrs={"queue_wait": start - queued},
                )
            )

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_list()) + "\n")


def load_spans(path: Path) -> list[Span]:
    with path.open(encoding="utf-8") as handle:
        return [Span.from_list(json.loads(line)) for line in handle if line.strip()]


class TracedExecutor(ThreadPoolExecutor):
    """A thread pool that runs every task in its submitter's context,
    so spans recorded on the worker thread keep their parent."""

    def __init__(self, tracer: Tracer, max_workers: int | None = None) -> None:
        super().__init__(max_workers=max_workers, thread_name_prefix="traced")
        self._tracer = tracer

    def submit(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        queued = time.perf_counter()
        return super().submit(
            context.run, self._tracer.run_in_worker, queued, fn, args, kwargs
        )


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _patch_function(tracer: Tracer, module, name: str, span: str, **kw) -> None:
    """Wrap ``module.name`` in every loaded ``repro`` module that imported it."""
    original = getattr(module, name)
    wrapped = tracer.wrap(original, span, **kw)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, name, None) is original
        ):
            setattr(loaded, name, wrapped)


def _patch_method(tracer: Tracer, cls, name: str, span: str, **kw) -> None:
    setattr(cls, name, tracer.wrap(getattr(cls, name), span, **kw))


def _stats_attrs(args, kwargs, result):
    if result is None:
        return None
    stats = result.stats
    return {
        "candidates": stats.candidates_enumerated,
        "maxflow_runs": stats.maxflow_runs,
        "augmenting_paths": stats.augmenting_paths,
        "insertions": stats.incremental_insertions,
        "deletions": stats.incremental_deletions,
        "pruned": stats.pruned_intervals,
        "kernel_runs": dict(stats.kernel_runs),
    }


def _planner_attrs(args, kwargs, result):
    return None if result is None else result[1].as_dict()


def _request_rid(args, kwargs, result):
    return args[1].id


def _request_op(args, kwargs, result):
    return {"op": args[1].op}


def _parsed_rid(args, kwargs, result):
    return getattr(result, "id", None) or None


def _payload_rid(args, kwargs, result):
    payload = args[0]
    return payload.get("id") or None


def _forward_rid(args, kwargs, result):
    return args[1].get("id") or None


def _log_attrs(args, kwargs, result):
    record = args[1]
    written = len(json.dumps(record, separators=(",", ":"), sort_keys=True)) + 1
    user = len(json.dumps(record.get("edges", []), separators=(",", ":")))
    return {"bytes": written, "user_bytes": user}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark traces.  Call once per process."""
    # Imported here so that importing this module stays cheap and side-effect free.
    import repro.anomaly.detector  # noqa: F401  (imports find_bursting_flow)
    import repro.cluster.coordinator as coordinator
    import repro.cluster.replication as replication
    import repro.core.bfq  # noqa: F401
    import repro.core.bfq_plus  # noqa: F401
    import repro.core.bfq_star  # noqa: F401
    import repro.core.engine as engine
    import repro.core.intervals as intervals
    import repro.core.planner as planner
    import repro.core.record as record
    import repro.service.protocol as protocol
    import repro.service.server  # noqa: F401
    import repro.service.workers as workers
    from repro.anomaly.detector import BurstDetector
    from repro.core.incremental import IncrementalTransformedNetwork
    from repro.core.skeleton import WindowSkeleton
    from repro.mining.pipeline import MiningPipeline
    from repro.service.cache import ResultCache
    from repro.service.server import BurstingFlowService
    from repro.store.log import AppendLog
    from repro.temporal.network import TemporalFlowNetwork

    # core / flownet
    _patch_function(tracer, intervals, "enumerate_candidates", "intervals.enumerate")
    _patch_method(tracer, WindowSkeleton, "__init__", "skeleton.compile")
    for method in ("__init__", "extend_end", "advance_start", "clone"):
        name = "build" if method == "__init__" else method
        _patch_method(
            tracer, IncrementalTransformedNetwork, method, f"incremental.{name}"
        )
    _patch_method(tracer, IncrementalTransformedNetwork, "run_maxflow", "maxflow.run")
    _patch_method(
        tracer, TemporalFlowNetwork, "sink_capacity_in_window", "prune.bound"
    )
    _patch_function(tracer, record, "should_prune", "prune.decide")
    _patch_function(
        tracer, engine, "find_bursting_flow", "engine.query", attrs=_stats_attrs
    )
    # planner / anomaly
    _patch_function(
        tracer, planner, "answer_planned", "planner.answer", attrs=_planner_attrs
    )
    _patch_function(tracer, planner, "top_k_bursts", "planner.topk")
    _patch_method(
        tracer, BurstDetector, "scan", "detector.scan",
        attrs=lambda a, k, r: None if r is None else {"flagged": len(r.flagged)},
    )
    # service
    _patch_function(tracer, protocol, "parse_request", "protocol.parse", rid=_parsed_rid)
    _patch_function(tracer, protocol, "parse_reply", "protocol.parse", rid=_parsed_rid)
    _patch_function(tracer, protocol, "encode", "protocol.encode", rid=_payload_rid)
    _patch_method(
        tracer, BurstingFlowService, "handle_request", "server.handle",
        rid=_request_rid, attrs=_request_op,
    )
    _patch_method(
        tracer, ResultCache, "get", "cache.get",
        attrs=lambda a, k, r: {"hit": r is not None},
    )
    _patch_method(tracer, ResultCache, "put", "cache.put")
    _patch_method(tracer, ResultCache, "purge_epochs_below", "cache.purge")
    for method in ("answer", "answer_batch", "answer_topk"):
        _patch_method(tracer, workers.InlineEngine, method, "engine.dispatch")
    _patch_method(tracer, MiningPipeline, "sync", "mining.sync")
    _patch_method(tracer, MiningPipeline, "scan", "mining.scan")
    _patch_method(tracer, TemporalFlowNetwork, "add_edge", "network.apply")
    # cluster / store
    _patch_method(
        tracer, coordinator.ClusterCoordinator, "handle_request",
        "coordinator.handle", rid=_request_rid, attrs=_request_op,
    )
    _patch_method(
        tracer, coordinator._ReplicaChannel, "request", "coordinator.forward",
        rid=_forward_rid,
    )
    _patch_method(tracer, AppendLog, "append", "log.append", attrs=_log_attrs)
    _patch_method(tracer, AppendLog, "flush", "log.flush")
    _patch_function(tracer, replication, "apply_record", "replication.apply")


def trace_service_pools(tracer: Tracer, service) -> None:
    """Swap a service's inline engine thread pool for a traced one."""
    engine = service.engine
    pool = getattr(engine, "_pool", None)
    if isinstance(pool, ThreadPoolExecutor) and not isinstance(pool, TracedExecutor):
        workers = pool._max_workers
        pool.shutdown(wait=True)
        engine._pool = TracedExecutor(tracer, workers)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
@dataclass
class Analysis:
    """Spans of one traced run, linked into trees and measured."""

    spans: list[Span]
    by_id: dict[int, Span]
    children: dict[int, list[Span]]
    roots: list[Span]
    self_time: dict[int, float]
    in_scope: set[int] = field(default_factory=set)

    def named(self, prefix: str) -> list[Span]:
        return [
            s for s in self.spans
            if s.sid in self.in_scope
            and (s.name == prefix or s.name.startswith(prefix + "."))
        ]

    def self_sum(self, prefix: str, op: str | None = None) -> float:
        return sum(
            self.self_time[s.sid]
            for s in self.named(prefix)
            if op is None or (s.attrs or {}).get("op") == op
        )

    def total(self, prefix: str, op: str | None = None) -> float:
        return sum(
            s.end - s.start
            for s in self.named(prefix)
            if op is None or (s.attrs or {}).get("op") == op
        )

    def count(self, prefix: str) -> int:
        return len(self.named(prefix))

    def attr_sum(self, prefix: str, key: str) -> float:
        return sum((s.attrs or {}).get(key, 0) for s in self.named(prefix))

    def wait_before_first_child(self, prefix: str, op: str | None = None) -> float:
        """Time from each span's start to its first child's start."""
        waited = 0.0
        for span in self.named(prefix):
            if op is not None and (span.attrs or {}).get("op") != op:
                continue
            kids = self.children.get(span.sid)
            if kids:
                waited += min(k.start for k in kids) - span.start
        return waited

    def table(self) -> tuple[list[tuple[str, int, float]], float, float]:
        """Per-layer self time rows, the unattributed total and the
        end-to-end total (sum of in-scope root durations)."""
        rows: dict[str, list] = defaultdict(lambda: [0, 0.0])
        unattributed = 0.0
        for span in self.spans:
            if span.sid not in self.in_scope:
                continue
            if span.name in DISPATCHERS:
                unattributed += self.self_time[span.sid]
                continue
            row = rows[span.name]
            row[0] += 1
            row[1] += self.self_time[span.sid]
        total = sum(
            r.end - r.start for r in self.roots if r.sid in self.in_scope
        )
        ordered = sorted(
            ((name, c, s) for name, (c, s) in rows.items()),
            key=lambda item: -item[2],
        )
        return ordered, unattributed, total


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    covered = 0.0
    cursor = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= cursor:
            continue
        covered += hi - max(lo, cursor)
        cursor = hi
    return covered


def analyze(spans: list[Span], root_prefix: str | None = None) -> Analysis:
    """Link spans into trees, compute self times and select the scope.

    Args:
        root_prefix: when set, only trees whose root span name starts
            with it are in scope (the serve workloads pass ``"client."``
            so health probes and boot traffic stay out of the table).
    """
    by_id = {span.sid: span for span in spans}
    # Spans that can adopt an orphan: client requests, and spans that
    # already know their parent (a coordinator's forwarding hop).
    anchors: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.rid and (span.parent is not None or span.name.startswith("client.")):
            anchors[span.rid].append(span)
    adopted: set[tuple[int, str]] = set()
    orphans = sorted(
        (s for s in spans if s.parent is None and s.rid and not s.name.startswith("client.")),
        key=lambda s: s.start,
    )
    for span in orphans:
        enclosing = [
            other for other in anchors[span.rid]
            if other.start <= span.start and other.end >= span.end
        ]
        if not enclosing:
            continue
        # A fan-out sends one request id to several replicas: give each
        # hop at most one adopted span of a kind, innermost first.
        best = max(
            enclosing,
            key=lambda o: ((o.sid, span.name) not in adopted, o.start),
        )
        adopted.add((best.sid, span.name))
        span.parent = best.sid
    children: dict[int, list[Span]] = defaultdict(list)
    roots: list[Span] = []
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            children[span.parent].append(span)
        else:
            roots.append(span)
    self_time = {}
    for span in spans:
        kids = children.get(span.sid, ())
        covered = _union_length(
            (max(k.start, span.start), min(k.end, span.end))
            for k in kids
            if k.end > span.start and k.start < span.end
        )
        self_time[span.sid] = (span.end - span.start) - covered
    analysis = Analysis(spans, by_id, children, roots, self_time)
    stack = [
        r for r in roots
        if root_prefix is None or r.name.startswith(root_prefix)
    ]
    while stack:
        span = stack.pop()
        analysis.in_scope.add(span.sid)
        stack.extend(children.get(span.sid, ()))
    return analysis


def format_table(analysis: Analysis, title: str) -> list[str]:
    rows, unattributed, total = analysis.table()
    lines = [
        f"per-layer self time — {title} (end-to-end total {total:.4f} s)",
        f"  {'layer':<26} {'calls':>8} {'self_s':>10} {'share':>7}",
    ]
    for name, count, seconds in rows:
        share = seconds / total if total else 0.0
        lines.append(f"  {name:<26} {count:>8} {seconds:>10.4f} {share:>7.1%}")
    share = unattributed / total if total else 0.0
    lines.append(f"  {'unattributed':<26} {'':>8} {unattributed:>10.4f} {share:>7.1%}")
    return lines
