#!/usr/bin/env python
"""Quickstart: build a tiny temporal flow network and query its delta-BFlow.

The network models a handful of money transfers.  A burst of transfers
happens between timestamps 10 and 13; a slow drip happens over the rest of
the horizon.  The delta-BFlow query pinpoints the burst.

Run:  python examples/quickstart.py
"""

from repro import BurstingFlowQuery, TemporalFlowNetworkBuilder, find_bursting_flow


def main() -> None:
    network = (
        TemporalFlowNetworkBuilder()
        # --- the burst: alice -> {bob, carol} -> dave within 3 ticks ---
        .edge("alice", "bob", tau=10, capacity=500.0)
        .edge("alice", "carol", tau=10, capacity=400.0)
        .edge("bob", "dave", tau=12, capacity=500.0)
        .edge("carol", "dave", tau=13, capacity=400.0)
        # --- background drip: small transfers spread over the horizon ---
        .edge("alice", "bob", tau=2, capacity=20.0)
        .edge("bob", "dave", tau=5, capacity=20.0)
        .edge("alice", "erin", tau=20, capacity=30.0)
        .edge("erin", "dave", tau=28, capacity=30.0)
        .build()
    )

    query = BurstingFlowQuery(source="alice", sink="dave", delta=2)
    result = find_bursting_flow(network, query)

    print("delta-BFlow query:", query.source, "->", query.sink, "delta =", query.delta)
    print(f"  flow density     : {result.density:.1f} per tick")
    print(f"  bursting interval: {result.interval}")
    print(f"  flow value       : {result.flow_value:.1f}")
    print(f"  candidates tried : {result.stats.candidates_enumerated}")

    # The burst (900 units inside [10, 13]) dominates the slow drip.
    assert result.interval is not None
    lo, hi = result.interval
    assert 10 <= lo and hi <= 13, "expected the burst window to win"

    # Compare the three solutions: identical answers, different work.
    for algorithm in ("bfq", "bfq+", "bfq*"):
        r = find_bursting_flow(network, query, algorithm=algorithm)
        print(
            f"  {algorithm:<5} density={r.density:.1f} "
            f"maxflow_runs={r.stats.maxflow_runs} "
            f"pruned={r.stats.pruned_intervals}"
        )

    # Where the time went: BFQ compiles the network once per query into a
    # window skeleton, slices every candidate window out of flat arrays and
    # runs the persistent arena Dinic on it.  PhaseBreakdown splits the
    # work into transform (skeleton compile + slicing), maxflow and prune.
    from repro.core import PhaseBreakdown

    for algorithm in ("bfq", "bfq*"):
        r = find_bursting_flow(network, query, algorithm=algorithm)
        phases = PhaseBreakdown.from_stats(r.stats)
        for line in phases.format().splitlines():
            print(f"  {algorithm:<5} {line}")


if __name__ == "__main__":
    main()
