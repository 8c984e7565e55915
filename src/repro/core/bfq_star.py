"""BFQ* — incremental Maxflow of both cases (Algorithm 3).

BFQ* adds the *deletion case* on top of BFQ+.  The minimal window
``[tau_s', tau_s' + delta]`` for the next starting timestamp ``tau_s'`` is
not rebuilt from scratch; it is derived from the running state for the
current ``tau_s`` by:

1. snapshotting the state the moment the insertion sweep for ``tau_s``
   passes ``tau_s' + delta`` (the zig-zag of Figure 5(c)), extending the
   snapshot's end to exactly ``tau_s' + delta``;
2. *advancing the start* of the snapshot to ``tau_s'`` — timestamp
   injection, boundary-flow withdrawal through a virtual node and a reverse
   Dinic run, and prefix retirement (Lemma 4/5); and
3. resuming Dinic on the result to obtain ``MF[tau_s', tau_s' + delta]``.

The snapshot then becomes the running state for the ``tau_s'`` iteration,
and the insertion sweep for the current ``tau_s`` continues unchanged.
Both sweeps step through :func:`~repro.core.sweep.insertion_step`, the
step BFQ+ drives, and every window is solved through
:func:`~repro.core.sweep.solve`.  The step extends a state only when its
candidate survives the Observation-2 test, so the running state may end
before ``tau_s' + delta`` when the snapshot is taken; the snapshot's own
extension in step 1 covers that.

As in BFQ+, one :class:`~repro.core.skeleton.WindowSkeleton` is compiled
per query, shared by the running state and every snapshot it spawns —
extensions after an ``advance_start`` slice the included edges of the
*new* start.
"""

from __future__ import annotations

import time

from repro.core.bfq_plus import _evaluate_corner
from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.intervals import CandidatePlan, enumerate_candidates
from repro.core.query import BurstingFlowQuery, BurstingFlowResult, QueryStats
from repro.core.record import BestRecord
from repro.core.skeleton import WindowSkeleton
from repro.core.sweep import insertion_step, solve, solve_fresh
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork


def bfq_star(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    *,
    use_pruning: bool = True,
) -> BurstingFlowResult:
    """Answer ``query`` with BFQ* (insertion + deletion incremental Maxflow).

    Args:
        network: the temporal flow network.
        query: the delta-BFlow query.
        use_pruning: apply Observation 2 during the insertion sweeps.
    """
    query.validate_against(network)
    stats = QueryStats()
    plan: CandidatePlan = enumerate_candidates(
        network, query.source, query.sink, query.delta
    )
    best = BestRecord()
    skeleton: WindowSkeleton | None = None
    if plan.starts or plan.corner is not None:
        t0 = time.perf_counter()
        skeleton = WindowSkeleton(network, query.source)
        stats.transform_seconds += time.perf_counter() - t0

    if plan.starts:
        _zigzag(
            plan, best, stats,
            use_pruning=use_pruning, skeleton=skeleton, sink=query.sink,
        )
    _evaluate_corner(plan, best, stats, skeleton=skeleton, sink=query.sink)

    return BurstingFlowResult(
        density=best.density,
        interval=best.interval,
        flow_value=best.value,
        stats=stats,
    )


def _zigzag(
    plan: CandidatePlan,
    best: BestRecord,
    stats: QueryStats,
    *,
    use_pruning: bool,
    skeleton: WindowSkeleton,
    sink: NodeId,
) -> None:
    """The Figure 5(c) evaluation pattern over all starting timestamps."""
    delta = plan.delta
    first_start = plan.starts[0]
    stats.candidates_enumerated += 1
    state, value = solve_fresh(
        skeleton, sink, first_start, first_start + delta, stats
    )
    best.offer(value, first_start, first_start + delta)

    for position, tau_s in enumerate(plan.starts):
        next_start = (
            plan.starts[position + 1] if position + 1 < len(plan.starts) else None
        )
        successor: IncrementalTransformedNetwork | None = None
        for tau_e_next in plan.endings_for(tau_s):
            if (
                next_start is not None
                and successor is None
                and tau_e_next >= next_start + delta
            ):
                successor = _branch_for_next_start(
                    state, next_start, delta, best, stats
                )
            insertion_step(
                state, tau_e_next, best, stats, use_pruning=use_pruning
            )

        if next_start is None:
            break
        if successor is None:
            # The sweep never reached next_start + delta (or had no endings
            # at all): derive the successor from the current state instead.
            successor = _branch_for_next_start(state, next_start, delta, best, stats)
        state = successor


def _branch_for_next_start(
    state: IncrementalTransformedNetwork,
    next_start: Timestamp,
    delta: int,
    best: BestRecord,
    stats: QueryStats,
) -> IncrementalTransformedNetwork:
    """Lines 9-13: snapshot, shrink to ``[next_start, next_start + delta]``.

    Clones the running state, extends the clone's end to exactly
    ``next_start + delta`` when needed, withdraws the pre-``next_start``
    flow (IncreMaxFlow-), and resumes Dinic for the minimal window of the
    next starting timestamp.  The clone shares the query's compiled
    skeleton, so the extension slices its included edges directly.
    """
    stats.candidates_enumerated += 1
    t0 = time.perf_counter()
    successor = state.clone()
    target_end = next_start + delta
    if successor.tau_e < target_end:
        successor.extend_end(target_end)
        stats.incremental_insertions += 1
    successor.advance_start(next_start)
    stats.incremental_deletions += 1
    value = solve(successor, stats, "maxflow-", t0)
    best.offer(value, next_start, target_end)
    return successor
