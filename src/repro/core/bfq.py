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
The from-scratch per-window
:func:`~repro.core.transform.build_transformed_network` construction
remains the independent reference of the naive and NetworkX baselines,
and any registered Maxflow solver (:data:`repro.flownet.algorithms.
SOLVERS`) can be run on it (Section 3.1).

This is the paper's baseline; BFQ+ and BFQ* produce identical answers
faster by reusing work across candidate intervals.
"""

from __future__ import annotations

import time

from repro.core.intervals import enumerate_candidates
from repro.core.query import BurstingFlowQuery, BurstingFlowResult, QueryStats
from repro.core.record import BestRecord
from repro.core.skeleton import WindowSkeleton
from repro.core.sweep import solve_fresh
from repro.temporal.network import TemporalFlowNetwork


def bfq(
    network: TemporalFlowNetwork, query: BurstingFlowQuery
) -> BurstingFlowResult:
    """Answer ``query`` with the from-scratch BFQ algorithm.

    Every Lemma-2 candidate window is built fresh and solved from scratch;
    each window's Maxflow value is recorded as an
    :class:`~repro.core.query.IntervalSample` in the result's stats.
    """
    query.validate_against(network)
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
        _, value = solve_fresh(skeleton, sink, tau_s, tau_e, stats)
        best.offer(value, tau_s, tau_e)

    return BurstingFlowResult(
        density=best.density,
        interval=best.interval,
        flow_value=best.value,
        stats=stats,
    )
