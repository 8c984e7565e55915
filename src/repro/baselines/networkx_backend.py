"""BFQ with NetworkX as the Maxflow engine.

Two purposes:

* **Cross-check.**  NetworkX's ``maximum_flow_value`` is an entirely
  independent Maxflow implementation; agreement with our Dinic on the same
  transformed networks is strong evidence both are right.
* **Motivation.**  The reproduction bands note that "networkx [is]
  available but slow for large networks" — the benchmark
  ``benchmarks/test_baseline_networkx.py`` quantifies exactly how much a
  bespoke, residual-reusing solver buys over an off-the-shelf library call
  per candidate interval.

networkx is imported on the first conversion, so importing this module
(and :mod:`repro.baselines`) does not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.intervals import enumerate_candidates
from repro.core.query import (
    BurstingFlowQuery,
    BurstingFlowResult,
    IntervalSample,
    QueryStats,
)
from repro.core.record import BestRecord
from repro.core.transform import TransformedNetwork, build_transformed_network
from repro.temporal.network import TemporalFlowNetwork

if TYPE_CHECKING:
    import networkx as nx


def to_networkx(transformed: TransformedNetwork) -> nx.DiGraph:
    """Convert a transformed network into a ``networkx.DiGraph``.

    Hold edges keep infinite capacity by *omitting* the capacity attribute
    (NetworkX treats missing capacities as unbounded).  Parallel edges are
    merged by capacity summation.
    """
    import networkx as nx

    graph = nx.DiGraph()
    network = transformed.flow_network
    for index in network.active_indices():
        graph.add_node(network.label_of(index))
    for tail, arc in network.iter_edges():
        if network.is_retired(tail) or network.is_retired(arc.head):
            continue
        u = network.label_of(tail)
        v = network.label_of(arc.head)
        # Original capacity = forward residual + routed flow (reverse cap).
        routed = network.arcs_of(arc.head)[arc.rev].cap
        capacity = math.inf if math.isinf(arc.cap) else arc.cap + routed
        if math.isinf(capacity):
            graph.add_edge(u, v)  # unbounded
        elif graph.has_edge(u, v) and "capacity" in graph[u][v]:
            graph[u][v]["capacity"] += capacity
        else:
            graph.add_edge(u, v, capacity=capacity)
    return graph


def networkx_maxflow_value(transformed: TransformedNetwork) -> float:
    """Maxflow value of a transformed network computed by NetworkX."""
    import networkx as nx

    graph = to_networkx(transformed)
    source = (transformed.source, transformed.tau_s)
    sink = (transformed.sink, transformed.tau_e)
    if source not in graph or sink not in graph:
        return 0.0
    return float(nx.maximum_flow_value(graph, source, sink))


def networkx_bfq(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
) -> BurstingFlowResult:
    """BFQ (Algorithm 1) with NetworkX computing each window's Maxflow."""
    query.validate_against(network)
    stats = QueryStats()
    plan = enumerate_candidates(network, query.source, query.sink, query.delta)
    best = BestRecord()
    for tau_s, tau_e in plan.intervals():
        stats.candidates_enumerated += 1
        transformed = build_transformed_network(
            network, query.source, query.sink, tau_s, tau_e
        )
        value = networkx_maxflow_value(transformed)
        stats.maxflow_runs += 1
        stats.record_sample(
            IntervalSample(
                interval=(tau_s, tau_e),
                network_size=transformed.num_nodes,
                mode="networkx",
                maxflow_seconds=0.0,
                transform_seconds=0.0,
                flow_value=value,
            )
        )
        best.offer(value, tau_s, tau_e)
    return BurstingFlowResult(
        density=best.density,
        interval=best.interval,
        flow_value=best.value,
        stats=stats,
    )
