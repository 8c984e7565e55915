"""One window solve and one insertion-sweep step for every exact backend.

BFQ, BFQ+, BFQ* and the planner evaluate their windows on
:class:`~repro.core.incremental.IncrementalTransformedNetwork` states.
:func:`solve` runs the kernel on a state, counts the run, records its
:class:`~repro.core.query.IntervalSample` and returns the state's
:meth:`~IncrementalTransformedNetwork.flow_value` — the one value source
of all four backends; :func:`solve_fresh` first builds the window from
the source's compiled skeleton.

:func:`insertion_step` is lines 5-11 of Algorithms 2 and 3: test the
Observation-2 bound of the next candidate ending, then either record the
candidate as pruned or move the running state's end to it (Lemma 3) and
resume Maxflow.  A state is extended only just before a Maxflow run, so
it always ends at its last solved window and the bound is read off it:
its flow value plus the sink capacity after its end.  BFQ+ drives the
step once per start, BFQ* along the zig-zag (branching each successor
off the running state before the step), and the streaming monitor once
per sink-touching batch.
"""

from __future__ import annotations

import time

from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.query import IntervalSample, QueryStats
from repro.core.record import BestRecord, should_prune
from repro.core.skeleton import WindowSkeleton
from repro.temporal.edge import NodeId, Timestamp


def solve(
    state: IncrementalTransformedNetwork,
    stats: QueryStats,
    mode: str,
    t0: float,
    *,
    value_bound: float | None = None,
) -> float:
    """Resume Maxflow on ``state``, record a ``mode`` sample, return ``|f|``.

    ``t0`` is when the work on this window began: everything between it
    and the kernel start is the sample's transform time.  ``value_bound``
    is passed to :meth:`~IncrementalTransformedNetwork.run_maxflow`.
    """
    t1 = time.perf_counter()
    run = state.run_maxflow(value_bound=value_bound)
    t2 = time.perf_counter()
    stats.maxflow_runs += 1
    stats.augmenting_paths += run.augmenting_paths
    stats.note_kernel(run.kernel, t2 - t1)
    value = state.flow_value()
    stats.record_sample(
        IntervalSample(
            interval=(state.tau_s, state.tau_e),
            network_size=state.num_nodes,
            mode=mode,
            maxflow_seconds=t2 - t1,
            transform_seconds=t1 - t0,
            flow_value=value,
        )
    )
    return value


def solve_fresh(
    skeleton: WindowSkeleton,
    sink: NodeId,
    tau_s: Timestamp,
    tau_e: Timestamp,
    stats: QueryStats,
) -> tuple[IncrementalTransformedNetwork, float]:
    """Build ``[tau_s, tau_e]`` towards ``sink`` from the source's
    ``skeleton`` and solve it from scratch."""
    t0 = time.perf_counter()
    state = IncrementalTransformedNetwork(
        skeleton.temporal, skeleton.source, sink, tau_s, tau_e,
        skeleton=skeleton,
    )
    return state, solve(state, stats, "dinic", t0)


def insertion_step(
    state: IncrementalTransformedNetwork,
    tau_e: Timestamp,
    best: BestRecord,
    stats: QueryStats,
    *,
    use_pruning: bool,
) -> None:
    """Evaluate the candidate ``[state.tau_s, tau_e]`` on ``state``.

    ``state`` ends at the last window solved on it, so its flow value plus
    the sink capacity in ``(state.tau_e, tau_e]`` bounds the candidate's
    Maxflow (Observation 2).  A pruned candidate leaves ``state``
    untouched; a surviving one extends it to ``tau_e`` and resumes Maxflow.
    """
    stats.candidates_enumerated += 1
    t0 = time.perf_counter()
    pending = state.temporal.sink_capacity_in_window(
        state.sink, state.tau_e + 1, tau_e
    )
    if use_pruning:
        value = state.flow_value()
        if should_prune(value + pending, best.density, tau_e - state.tau_s):
            stats.pruned_intervals += 1
            stats.prune_seconds += time.perf_counter() - t0
            stats.record_sample(
                IntervalSample(
                    interval=(state.tau_s, tau_e),
                    network_size=state.num_nodes,
                    mode="pruned",
                    maxflow_seconds=0.0,
                    transform_seconds=0.0,
                    flow_value=value,
                )
            )
            return
    tp = time.perf_counter()
    stats.prune_seconds += tp - t0
    state.extend_end(tau_e)
    stats.incremental_insertions += 1
    value = solve(state, stats, "maxflow+", tp, value_bound=pending)
    best.offer(value, state.tau_s, tau_e)
