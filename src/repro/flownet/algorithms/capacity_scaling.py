"""Capacity-scaling Ford-Fulkerson.

The classical fix for Ford-Fulkerson's value-dependent running time:
augment only along residual paths whose bottleneck is at least a threshold
``Δ``, halving ``Δ`` once no such path remains.  ``O(|E|^2 log U)`` with
integer-ish capacities — a useful middle ground between plain
Ford-Fulkerson and Dinic for the Table-4 comparison, and another
independent implementation for the solver-agreement property tests.

Resumable like the other augmenting-path solvers (reads only the current
residual state).
"""

from __future__ import annotations

import math

from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.network import FLOW_EPSILON, FlowNetwork


def capacity_scaling(network: FlowNetwork, source: int, sink: int) -> MaxflowRun:
    """Scaling Ford-Fulkerson: DFS augmenting paths above a falling threshold."""
    if source == sink:
        return MaxflowRun(value=0.0)
    adj = network._adj  # noqa: SLF001 - hot path
    retired = network._retired  # noqa: SLF001

    largest_finite = 0.0
    for arcs in adj:
        for arc in arcs:
            if math.isfinite(arc.cap) and arc.cap > largest_finite:
                largest_finite = arc.cap
    if largest_finite <= FLOW_EPSILON:
        return MaxflowRun(value=0.0)
    threshold = 2.0 ** math.floor(math.log2(largest_finite))

    total = 0.0
    n_paths = 0
    phases = 0
    while threshold >= FLOW_EPSILON:
        phases += 1
        while True:
            path = _dfs_above(adj, retired, source, sink, threshold)
            if path is None:
                break
            bottleneck = min(adj[tail][pos].cap for tail, pos in path)
            for tail, pos in path:
                arc = adj[tail][pos]
                if not math.isinf(arc.cap):
                    arc.cap -= bottleneck
                adj[arc.head][arc.rev].cap += bottleneck
            total += bottleneck
            n_paths += 1
        if threshold < 1e-6:
            # Below any meaningful capacity resolution: finish exactly with
            # an unrestricted pass and stop.
            threshold = 0.0
            while True:
                path = _dfs_above(adj, retired, source, sink, FLOW_EPSILON)
                if path is None:
                    break
                bottleneck = min(adj[tail][pos].cap for tail, pos in path)
                for tail, pos in path:
                    arc = adj[tail][pos]
                    if not math.isinf(arc.cap):
                        arc.cap -= bottleneck
                    adj[arc.head][arc.rev].cap += bottleneck
                total += bottleneck
                n_paths += 1
            break
        threshold /= 2.0
    return MaxflowRun(value=total, augmenting_paths=n_paths, phases=phases)


def _dfs_above(
    adj: list,
    retired: list[bool],
    source: int,
    sink: int,
    threshold: float,
) -> list[tuple[int, int]] | None:
    """Iterative DFS along arcs with residual >= threshold."""
    if retired[source] or retired[sink]:
        return None
    floor = max(threshold, FLOW_EPSILON)
    seen = {source}
    stack: list[tuple[int, int]] = [(source, 0)]
    path: list[tuple[int, int]] = []
    while stack:
        node, pos = stack[-1]
        arcs = adj[node]
        if pos >= len(arcs):
            stack.pop()
            if path:
                path.pop()
            continue
        stack[-1] = (node, pos + 1)
        arc = arcs[pos]
        other = arc.head
        if arc.cap >= floor and other not in seen and not retired[other]:
            path.append((node, pos))
            if other == sink:
                return path
            seen.add(other)
            stack.append((other, 0))
    return None
