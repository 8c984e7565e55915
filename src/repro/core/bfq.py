"""BFQ — the practical delta-BFlow solution (Algorithm 1).

BFQ enumerates the ``O(d^2)`` candidate intervals of Lemma 2 and, for each
one, transforms the temporal flow network and runs a classical Maxflow
solver on the transformed network.  The best density seen, together with
its interval, is the query answer.

The network is compiled once per query into a
:class:`~repro.core.skeleton.WindowSkeleton`, and every candidate window
is a fresh :class:`~repro.core.incremental.IncrementalTransformedNetwork`
built from the skeleton's slice: a residual arena the persistent Dinic
kernel consumes natively, with no per-window ``FlowNetwork`` object graph.
With a non-Dinic ``solver=``, each window is the skeleton's slice handed
to :func:`~repro.core.transform.assemble` — still amortising the
per-window reachability sweep.  The from-scratch per-window
:func:`~repro.core.transform.build_transformed_network` construction
remains the independent reference of the naive and NetworkX baselines.

This is the paper's baseline; BFQ+ and BFQ* produce identical answers
faster by reusing work across candidate intervals.
"""

from __future__ import annotations

import time

from repro.core.intervals import enumerate_candidates
from repro.core.query import (
    BurstingFlowQuery,
    BurstingFlowResult,
    IntervalSample,
    QueryStats,
)
from repro.core.record import BestRecord
from repro.core.skeleton import WindowSkeleton
from repro.core.sweep import solve_fresh
from repro.core.transform import assemble
from repro.flownet.algorithms.registry import get_solver
from repro.temporal.network import TemporalFlowNetwork


def bfq(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    *,
    solver: str = "dinic",
) -> BurstingFlowResult:
    """Answer ``query`` with the from-scratch BFQ algorithm.

    Args:
        network: the temporal flow network.
        query: the delta-BFlow query ``(s, t, delta)``.
        solver: name of the Maxflow solver to use per candidate interval
            (any entry of :data:`repro.flownet.algorithms.SOLVERS`).
    """
    query.validate_against(network)
    solve = get_solver(solver)  # fail fast on unknown solver names
    stats = QueryStats()
    source, sink = query.source, query.sink
    plan = enumerate_candidates(network, source, sink, query.delta)
    best = BestRecord()
    skeleton: WindowSkeleton | None = None
    for tau_s, tau_e in plan.intervals():
        stats.candidates_enumerated += 1
        if skeleton is None:
            t0 = time.perf_counter()
            skeleton = WindowSkeleton(network, source)
            stats.transform_seconds += time.perf_counter() - t0
        if solver == "dinic":
            _, value = solve_fresh(skeleton, sink, tau_s, tau_e, stats)
        else:
            # The byte-identical object graph of build_transformed_network.
            t0 = time.perf_counter()
            transformed = assemble(
                network, source, sink, tau_s, tau_e,
                skeleton.included_between(tau_s, tau_s, tau_e),
            )
            t1 = time.perf_counter()
            run = solve(
                transformed.flow_network,
                transformed.source_index,
                transformed.sink_index,
            )
            t2 = time.perf_counter()
            stats.maxflow_runs += 1
            stats.augmenting_paths += run.augmenting_paths
            stats.record_sample(
                IntervalSample(
                    interval=(tau_s, tau_e),
                    network_size=transformed.num_nodes,
                    mode="dinic",
                    maxflow_seconds=t2 - t1,
                    transform_seconds=t1 - t0,
                    flow_value=run.value,
                )
            )
            value = run.value
        best.offer(value, tau_s, tau_e)

    return BurstingFlowResult(
        density=best.density,
        interval=best.interval,
        flow_value=best.value,
        stats=stats,
    )
