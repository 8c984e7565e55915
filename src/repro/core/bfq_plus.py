"""BFQ+ — incremental Maxflow of the insertion case (Algorithm 2).

For each starting timestamp ``tau_s`` in ``Ti(s)``, BFQ+ builds the minimal
window ``[tau_s, tau_s + delta]`` once, computes its Maxflow with Dinic,
and then *extends the end* through the remaining candidate endings
``tau_e' in Ti(t)`` (ascending).  By Lemma 3 the residual state stays valid
across extensions, so each step only finds the *new* augmenting paths.

The Observation-2 capacity pruning is applied before every incremental
Dinic run: if even absorbing all sink capacity added since the last
computed Maxflow cannot beat the current best density, the candidate is
skipped, and so is its structural extension.  The state therefore always
ends at its last solved window, and the next candidate's bound is read
off it.  Each candidate ending is one
:func:`~repro.core.sweep.insertion_step`, the step BFQ* and the streaming
monitor drive too, and every window is solved through
:func:`~repro.core.sweep.solve`.

One :class:`~repro.core.skeleton.WindowSkeleton` of the query's source is
compiled per query and shared by every per-start incremental state,
replacing all per-extension reachability sweeps with binary-searched
slices of the edges its latest-departure column includes for that start.
"""

from __future__ import annotations

import time

from repro.core.intervals import CandidatePlan, enumerate_candidates
from repro.core.query import BurstingFlowQuery, BurstingFlowResult, QueryStats
from repro.core.record import BestRecord
from repro.core.skeleton import WindowSkeleton
from repro.core.sweep import insertion_step, solve_fresh
from repro.temporal.edge import NodeId
from repro.temporal.network import TemporalFlowNetwork


def bfq_plus(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    *,
    use_pruning: bool = True,
) -> BurstingFlowResult:
    """Answer ``query`` with BFQ+ (insertion-case incremental Maxflow).

    Args:
        network: the temporal flow network.
        query: the delta-BFlow query.
        use_pruning: apply Observation 2 (on by default; EXP-2 disables it
            to isolate the incremental speedup).
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

    for tau_s in plan.starts:
        tau_e = tau_s + plan.delta
        stats.candidates_enumerated += 1
        state, value = solve_fresh(skeleton, query.sink, tau_s, tau_e, stats)
        best.offer(value, tau_s, tau_e)
        for tau_e_next in plan.endings_for(tau_s):
            insertion_step(
                state, tau_e_next, best, stats, use_pruning=use_pruning
            )
    _evaluate_corner(plan, best, stats, skeleton=skeleton, sink=query.sink)

    return BurstingFlowResult(
        density=best.density,
        interval=best.interval,
        flow_value=best.value,
        stats=stats,
    )


def _evaluate_corner(
    plan: CandidatePlan,
    best: BestRecord,
    stats: QueryStats,
    *,
    skeleton: WindowSkeleton | None,
    sink: NodeId,
) -> None:
    """Footnote-4 corner case: the clamped window ``[T_max - delta, T_max]``.

    ``skeleton`` is the query source's compiled skeleton; it may be
    ``None`` only when the plan has no corner.
    """
    if plan.corner is None:
        return
    tau_s, tau_e = plan.corner
    stats.candidates_enumerated += 1
    _, value = solve_fresh(skeleton, sink, tau_s, tau_e, stats)
    best.offer(value, tau_s, tau_e)
