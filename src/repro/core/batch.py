"""Batch query evaluation.

Applications like the case study issue many delta-BFlow queries over one
network (the S x T sweep).  :func:`answer_many` evaluates a batch with:

* optional multiprocessing fan-out (queries are embarrassingly parallel);
* deterministic result ordering (input order), whatever the scheduling;
* shared validation and a single algorithm resolution;
* worker-death recovery: a :class:`BrokenProcessPool` (OOM-killed or
  crashed worker) rebuilds the pool once and resubmits only the queries
  that had not finished, instead of losing the whole batch;
* fail-fast batch semantics: an ordinary exception from one query cancels
  the outstanding siblings and raises a
  :class:`~repro.exceptions.BatchQueryError` naming the failing query
  (index + repr), instead of letting the rest of the batch burn CPU on
  answers that will be discarded;
* ``plan="shared"`` routes the batch through
  :mod:`repro.core.planner` — queries grouped by ``(source, sink)`` share
  one :class:`~repro.core.skeleton.WindowSkeleton` and a per-epoch
  candidate-window Maxflow memo, amortising overlapping delta sweeps.

Worker processes receive the network and the algorithm name through the
pool's ``initializer``/``initargs`` rather than fork-inherited module
globals, so every start method (``fork``, ``forkserver``, ``spawn``)
produces identical results — the test-suite asserts this against the
sequential path for each available method.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Iterable, Sequence

from repro.core._pool import run_pool
from repro.core.engine import DEFAULT_ALGORITHM, find_bursting_flow, get_algorithm
from repro.core.query import (
    BurstingFlowQuery,
    BurstingFlowResult,
    QueryStats,
    merge_query_stats,
)
from repro.exceptions import InvalidQueryError
from repro.temporal.network import TemporalFlowNetwork
from repro.temporal.shared import SharedNetworkStore, pool_initargs

#: ``plan=`` choices for :func:`answer_many`.
KNOWN_PLANS = ("independent", "shared")

# Per-worker state, set by _init_worker in each pool process.  The parent
# process never assigns these: state travels through initargs (pickled for
# spawn/forkserver, inherited-then-overwritten for fork), which is what
# makes the three start methods equivalent.
_WORKER_NETWORK: TemporalFlowNetwork | None = None
_WORKER_ALGORITHM: str = DEFAULT_ALGORITHM


def _init_worker(network: TemporalFlowNetwork, algorithm: str) -> None:
    """Pool initializer: install the batch's shared state in this worker."""
    global _WORKER_NETWORK, _WORKER_ALGORITHM
    _WORKER_NETWORK = network
    _WORKER_ALGORITHM = algorithm


def _reset_worker_state() -> None:
    """Restore module defaults (also runs in the parent after the batch)."""
    global _WORKER_NETWORK, _WORKER_ALGORITHM
    _WORKER_NETWORK = None
    _WORKER_ALGORITHM = DEFAULT_ALGORITHM


def answer_many(
    network: TemporalFlowNetwork,
    queries: Iterable[BurstingFlowQuery],
    *,
    algorithm: str = DEFAULT_ALGORITHM,
    processes: int | None = None,
    mp_context: str | None = None,
    plan: str = "independent",
    shared: bool = False,
) -> list[BurstingFlowResult]:
    """Answer a batch of queries; results align with the input order.

    Args:
        network: the shared temporal flow network.
        queries: the batch (materialised internally).
        algorithm: delta-BFlow solution for every query (``plan=
            "independent"`` only — the planner owns its evaluation
            strategy and produces the same canonical answers).
        processes: worker processes; ``None`` or ``1`` runs sequentially;
            ``0`` means ``os.cpu_count()``.  Under ``plan="shared"`` the
            pool shards *(source, sink) groups*, not single queries.
        mp_context: multiprocessing start method for the worker pool
            (``"fork"``, ``"forkserver"`` or ``"spawn"``); ``None`` uses
            the platform default.  Ignored for sequential runs.
        plan: ``"independent"`` (default — every query solved on its own)
            or ``"shared"`` (route through :func:`repro.core.planner.
            answer_planned`: one skeleton per (s, t) group, overlapping
            delta sweeps solve each candidate window once).
        shared: ship the network to pool workers through a
            :class:`~repro.temporal.shared.SharedNetworkStore` (workers
            attach to one shared-memory edge log instead of each
            unpickling the network — worth it for large networks under
            ``spawn``/``forkserver``).  Falls back silently to pickled
            ``initargs`` when shared memory is unavailable; no effect on
            sequential runs.

    Raises:
        BatchQueryError: one query (or one planner group) failed; the
            outstanding siblings were cancelled.
    """
    if plan not in KNOWN_PLANS:
        raise InvalidQueryError(
            f"unknown plan {plan!r}; known: {', '.join(KNOWN_PLANS)}"
        )
    if plan == "shared":
        if algorithm != DEFAULT_ALGORITHM:
            raise InvalidQueryError(
                "plan='shared' routes through the planner, which owns its "
                "evaluation strategy (answers are canonical either way); "
                "leave algorithm at the default"
            )
        from repro.core.planner import answer_planned  # local: avoid cycle

        results, _report = answer_planned(
            network, queries, processes=processes, mp_context=mp_context
        )
        return results
    get_algorithm(algorithm)  # fail fast on unknown names
    batch: Sequence[BurstingFlowQuery] = list(queries)
    for query in batch:
        query.validate_against(network)
    if not batch:
        return []
    if processes == 0:
        processes = os.cpu_count() or 1
    if processes is None or processes <= 1 or len(batch) == 1:
        return [
            find_bursting_flow(network, query, algorithm=algorithm)
            for query in batch
        ]

    context = multiprocessing.get_context(mp_context)
    store = _open_store(network) if shared else None
    initializer, initargs = (
        pool_initargs(store, _init_worker, algorithm)
        if store is not None
        else (_init_worker, (network, algorithm))
    )
    try:
        # run_pool carries the shared fan-out discipline: BrokenProcessPool
        # rebuild-once recovery, and fail-fast cancellation that names the
        # failing query (index + repr) instead of letting siblings run on.
        return run_pool(
            batch,
            _answer_one,
            max_workers=processes,
            context=context,
            initializer=initializer,
            initargs=initargs,
            describe=lambda index: batch[index],
        )
    finally:
        if store is not None:
            store.close()
        # With fork, workers inherit whatever the parent's module state
        # happens to be at submit time; keeping the parent's copy pristine
        # guarantees a concurrent or subsequent batch can't leak its
        # algorithm (or network) into this one.
        _reset_worker_state()


def _answer_one(query: BurstingFlowQuery) -> BurstingFlowResult:
    assert _WORKER_NETWORK is not None, "worker started outside answer_many"
    return find_bursting_flow(
        _WORKER_NETWORK, query, algorithm=_WORKER_ALGORITHM
    )


def _open_store(network: TemporalFlowNetwork) -> "SharedNetworkStore | None":
    """A shared-memory store for ``network``, or ``None`` if unavailable."""
    try:
        return SharedNetworkStore(network)
    except (OSError, ValueError):  # pragma: no cover - no /dev/shm
        return None


# ----------------------------------------------------------------------
# parallel_windows: shard one BFQ query's candidate windows
# ----------------------------------------------------------------------
# Same initializer/initargs discipline as answer_many.  Each worker holds
# the network, query and solver name, plus a lazily compiled
# WindowSkeleton (one per process, reused by every chunk it evaluates).
_WINDOW_NETWORK: TemporalFlowNetwork | None = None
_WINDOW_QUERY: BurstingFlowQuery | None = None
_WINDOW_SOLVER: str = "dinic"
_WINDOW_SKELETON = None


def _init_window_worker(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    solver: str,
) -> None:
    """Pool initializer for the per-window fan-out."""
    global _WINDOW_NETWORK, _WINDOW_QUERY, _WINDOW_SOLVER, _WINDOW_SKELETON
    _WINDOW_NETWORK = network
    _WINDOW_QUERY = query
    _WINDOW_SOLVER = solver
    _WINDOW_SKELETON = None


def _reset_window_worker_state() -> None:
    """Restore module defaults (also runs in the parent after the query)."""
    global _WINDOW_NETWORK, _WINDOW_QUERY, _WINDOW_SOLVER, _WINDOW_SKELETON
    _WINDOW_NETWORK = None
    _WINDOW_QUERY = None
    _WINDOW_SOLVER = "dinic"
    _WINDOW_SKELETON = None


def _evaluate_window_chunk(intervals: list[tuple]) -> "QueryStats":
    """Evaluate one chunk of candidate windows in a worker process.

    Returns the chunk's :class:`QueryStats` (its samples carry every
    per-window flow value); the parent re-derives the best record from the
    samples, which is order-independent by the canonical tie-break.
    """
    from repro.core.bfq import evaluate_windows
    from repro.core.record import BestRecord
    from repro.core.skeleton import WindowSkeleton

    global _WINDOW_SKELETON
    assert _WINDOW_NETWORK is not None, "worker started outside bfq_parallel"
    assert _WINDOW_QUERY is not None
    if _WINDOW_SKELETON is None:
        _WINDOW_SKELETON = WindowSkeleton(
            _WINDOW_NETWORK, _WINDOW_QUERY.source, _WINDOW_QUERY.sink
        )
    stats = QueryStats()
    evaluate_windows(
        _WINDOW_NETWORK,
        _WINDOW_QUERY,
        intervals,
        BestRecord(),
        stats,
        solver=_WINDOW_SOLVER,
        skeleton=_WINDOW_SKELETON,
    )
    return stats


def bfq_parallel(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    *,
    processes: int,
    solver: str = "dinic",
    mp_context: str | None = None,
    shared: bool = False,
) -> BurstingFlowResult:
    """BFQ with candidate windows sharded across worker processes.

    BFQ's windows are evaluated independently (no state flows between
    them), and :class:`~repro.core.record.BestRecord`'s canonical
    tie-break is order-independent — so splitting the plan into contiguous
    chunks and merging per-window results reproduces the sequential
    answer exactly, samples in plan order and all.

    Args:
        processes: worker processes; ``0`` means ``os.cpu_count()``;
            ``<= 1`` falls back to sequential :func:`~repro.core.bfq.bfq`.
        solver: forwarded to the per-window evaluation.
        mp_context: multiprocessing start method (as in
            :func:`answer_many`).
        shared: ship the network through shared memory (as in
            :func:`answer_many`).
    """
    from repro.core.bfq import bfq
    from repro.core.intervals import enumerate_candidates
    from repro.core.record import BestRecord

    query.validate_against(network)
    if processes == 0:
        processes = os.cpu_count() or 1
    plan = enumerate_candidates(network, query.source, query.sink, query.delta)
    intervals = list(plan.intervals())
    if processes <= 1 or len(intervals) <= 1:
        return bfq(network, query, solver=solver)

    workers = min(processes, len(intervals))
    # Contiguous chunks keep each worker's skeleton slices cache-friendly
    # (consecutive windows share a start index).
    chunk_bounds = [
        (len(intervals) * w // workers, len(intervals) * (w + 1) // workers)
        for w in range(workers)
    ]
    chunks = [intervals[lo:hi] for lo, hi in chunk_bounds if hi > lo]

    context = multiprocessing.get_context(mp_context)
    store = _open_store(network) if shared else None
    initializer, initargs = (
        pool_initargs(store, _init_window_worker, query, solver)
        if store is not None
        else (_init_window_worker, (network, query, solver))
    )
    try:
        chunk_stats: list[QueryStats] = run_pool(
            chunks,
            _evaluate_window_chunk,
            max_workers=workers,
            context=context,
            initializer=initializer,
            initargs=initargs,
            describe=lambda index: f"window chunk {index} of {query!r}",
        )
    finally:
        if store is not None:
            store.close()
        _reset_window_worker_state()

    # Merge: concatenate stats in chunk order (which is plan order) —
    # field-derived, so a counter added to QueryStats later can never be
    # silently dropped from parallel results — and fold every per-window
    # flow value through one BestRecord (the canonical tie-break makes the
    # fold order irrelevant).
    stats = merge_query_stats(chunk_stats)
    best = BestRecord()
    for sample in stats.samples:
        best.offer(sample.flow_value, *sample.interval)
    return BurstingFlowResult(
        density=best.density,
        interval=best.interval,
        flow_value=best.value,
        stats=stats,
    )
