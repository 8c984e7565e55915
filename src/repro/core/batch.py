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
  :mod:`repro.core.planner` — queries from one source share one
  :class:`~repro.core.skeleton.WindowSkeleton`, and queries grouped by
  ``(source, sink)`` a per-epoch candidate-window Maxflow memo,
  amortising overlapping delta sweeps.

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
from repro.core.query import BurstingFlowQuery, BurstingFlowResult
from repro.exceptions import InvalidQueryError
from repro.temporal.network import TemporalFlowNetwork

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
            pool shards *sources*, not single queries.
        mp_context: multiprocessing start method for the worker pool
            (``"fork"``, ``"forkserver"`` or ``"spawn"``); ``None`` uses
            the platform default.  Ignored for sequential runs.
        plan: ``"independent"`` (default — every query solved on its own)
            or ``"shared"`` (route through :func:`repro.core.planner.
            answer_planned`: one skeleton per source, shared by its
            sinks; within an (s, t) group, overlapping delta sweeps
            solve each candidate window once).

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
    try:
        # run_pool carries the shared fan-out discipline: BrokenProcessPool
        # rebuild-once recovery, and fail-fast cancellation that names the
        # failing query (index + repr) instead of letting siblings run on.
        return run_pool(
            batch,
            _answer_one,
            max_workers=processes,
            context=context,
            initializer=_init_worker,
            initargs=(network, algorithm),
            describe=lambda index: batch[index],
        )
    finally:
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
