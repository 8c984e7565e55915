"""BFQ+ — incremental Maxflow of the insertion case (Algorithm 2).

For each starting timestamp ``tau_s`` in ``Ti(s)``, BFQ+ builds the minimal
window ``[tau_s, tau_s + delta]`` once, computes its Maxflow with Dinic,
and then *extends the end* through the remaining candidate endings
``tau_e' in Ti(t)`` (ascending).  By Lemma 3 the residual state stays valid
across extensions, so each step only finds the *new* augmenting paths.

The Observation-2 capacity pruning is applied before every incremental
Dinic run: if even absorbing all sink capacity added since the last
computed Maxflow cannot beat the current best density, the run is skipped.
The structural extension itself still happens (it is cheap and later
extensions build on it); a per-start ``pending`` accumulator keeps the
pruning bound correct across consecutively pruned candidates.

One :class:`~repro.core.skeleton.WindowSkeleton` is compiled per query and
shared by every per-start incremental state, replacing all per-extension
reachability sweeps with binary-searched slices of the compiled per-start
index.
"""

from __future__ import annotations

import time

from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.intervals import CandidatePlan, enumerate_candidates
from repro.core.query import (
    BurstingFlowQuery,
    BurstingFlowResult,
    IntervalSample,
    QueryStats,
)
from repro.core.record import BestRecord, should_prune
from repro.core.skeleton import WindowSkeleton
from repro.temporal.edge import Timestamp
from repro.temporal.network import TemporalFlowNetwork

#: Backwards-compatible alias — the record now lives in repro.core.record
#: so that all five backends share one canonical tie-break.
_BestRecord = BestRecord


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
        skeleton = WindowSkeleton(network, query.source, query.sink)
        stats.transform_seconds += time.perf_counter() - t0

    for tau_s in plan.starts:
        _sweep_endings(
            network,
            query,
            plan,
            tau_s,
            best,
            stats,
            use_pruning=use_pruning,
            skeleton=skeleton,
        )
    _evaluate_corner(plan, best, stats, skeleton=skeleton)

    return BurstingFlowResult(
        density=best.density,
        interval=best.interval,
        flow_value=best.value,
        stats=stats,
    )


def _sweep_endings(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    plan: CandidatePlan,
    tau_s: Timestamp,
    best: BestRecord,
    stats: QueryStats,
    *,
    use_pruning: bool,
    skeleton: WindowSkeleton,
) -> None:
    """Lines 4-11 of Algorithm 2 for one fixed ``tau_s``."""
    tau_e = tau_s + plan.delta
    stats.candidates_enumerated += 1
    t0 = time.perf_counter()
    state = IncrementalTransformedNetwork(
        network,
        query.source,
        query.sink,
        tau_s,
        tau_e,
        skeleton=skeleton,
    )
    t1 = time.perf_counter()
    run = state.run_maxflow()
    t2 = time.perf_counter()
    stats.maxflow_runs += 1
    stats.note_kernel(run.kernel, t2 - t1)
    stats.augmenting_paths += run.augmenting_paths
    flow_value = state.flow_value()
    stats.record_sample(
        IntervalSample(
            interval=(tau_s, tau_e),
            network_size=state.num_nodes,
            mode="dinic",
            maxflow_seconds=t2 - t1,
            transform_seconds=t1 - t0,
            flow_value=flow_value,
        )
    )
    best.offer(flow_value, tau_s, tau_e)

    # Sink capacity added since `flow_value` was last recomputed; feeds the
    # Observation-2 upper bound across consecutively pruned extensions.
    pending_sink_capacity = 0.0
    for tau_e_next in plan.endings_for(tau_s):
        stats.candidates_enumerated += 1
        t0 = time.perf_counter()
        pending_sink_capacity += network.sink_capacity_in_window(
            query.sink, state.tau_e + 1, tau_e_next
        )
        tp = time.perf_counter()
        state.extend_end(tau_e_next)
        t1 = time.perf_counter()
        stats.prune_seconds += tp - t0
        stats.incremental_insertions += 1

        upper_bound = flow_value + pending_sink_capacity
        if use_pruning and should_prune(upper_bound, best.density, tau_e_next - tau_s):
            stats.pruned_intervals += 1
            stats.record_sample(
                IntervalSample(
                    interval=(tau_s, tau_e_next),
                    network_size=state.num_nodes,
                    mode="pruned",
                    maxflow_seconds=0.0,
                    transform_seconds=t1 - tp,
                    flow_value=flow_value,
                )
            )
            continue

        run = state.run_maxflow(value_bound=pending_sink_capacity)
        t2 = time.perf_counter()
        stats.maxflow_runs += 1
        stats.note_kernel(run.kernel, t2 - t1)
        stats.augmenting_paths += run.augmenting_paths
        flow_value = state.flow_value()
        pending_sink_capacity = 0.0
        stats.record_sample(
            IntervalSample(
                interval=(tau_s, tau_e_next),
                network_size=state.num_nodes,
                mode="maxflow+",
                maxflow_seconds=t2 - t1,
                transform_seconds=t1 - tp,
                flow_value=flow_value,
            )
        )
        best.offer(flow_value, tau_s, tau_e_next)


def _evaluate_corner(
    plan: CandidatePlan,
    best: BestRecord,
    stats: QueryStats,
    *,
    skeleton: WindowSkeleton | None,
) -> None:
    """Footnote-4 corner case: the clamped window ``[T_max - delta, T_max]``.

    ``skeleton`` is the query's compiled skeleton; it may be ``None`` only
    when the plan has no corner.
    """
    if plan.corner is None:
        return
    tau_s, tau_e = plan.corner
    stats.candidates_enumerated += 1
    t0 = time.perf_counter()
    state = IncrementalTransformedNetwork(
        skeleton.temporal, skeleton.source, skeleton.sink, tau_s, tau_e,
        skeleton=skeleton,
    )
    t1 = time.perf_counter()
    run = state.run_maxflow()
    t2 = time.perf_counter()
    stats.maxflow_runs += 1
    stats.note_kernel(run.kernel, t2 - t1)
    stats.augmenting_paths += run.augmenting_paths
    stats.record_sample(
        IntervalSample(
            interval=(tau_s, tau_e),
            network_size=state.num_nodes,
            mode="dinic",
            maxflow_seconds=t2 - t1,
            transform_seconds=t1 - t0,
            flow_value=run.value,
        )
    )
    best.offer(run.value, tau_s, tau_e)
