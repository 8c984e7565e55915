"""Edmonds-Karp: Ford-Fulkerson with BFS-shortest augmenting paths.

Kept as a baseline for the Table-4 solver comparison and as an independent
implementation to cross-check Dinic in the test-suite.  Like Dinic it is
resumable: it only reads the current residual state.
"""

from __future__ import annotations

import math

from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.network import FLOW_EPSILON, FlowNetwork


def edmonds_karp(network: FlowNetwork, source: int, sink: int) -> MaxflowRun:
    """Augment along BFS-shortest residual paths until none remain."""
    if source == sink:
        return MaxflowRun(value=0.0)
    adj = network._adj  # noqa: SLF001 - hot path
    retired = network._retired  # noqa: SLF001
    total = 0.0
    n_paths = 0
    while True:
        parent = _bfs_parents(adj, retired, source, sink)
        if parent is None:
            break
        bottleneck = math.inf
        node = sink
        while node != source:
            tail, pos = parent[node]
            bottleneck = min(bottleneck, adj[tail][pos].cap)
            node = tail
        if not math.isfinite(bottleneck):
            raise ArithmeticError("augmenting path with infinite bottleneck")
        node = sink
        while node != source:
            tail, pos = parent[node]
            arc = adj[tail][pos]
            if not math.isinf(arc.cap):
                arc.cap -= bottleneck
            adj[arc.head][arc.rev].cap += bottleneck
            node = tail
        total += bottleneck
        n_paths += 1
    return MaxflowRun(value=total, augmenting_paths=n_paths, phases=n_paths)


def _bfs_parents(
    adj: list, retired: list[bool], source: int, sink: int
) -> dict[int, tuple[int, int]] | None:
    """Shortest-path BFS; returns child -> (parent, arc position), or None."""
    if retired[source] or retired[sink]:
        return None
    parent: dict[int, tuple[int, int]] = {source: (-1, -1)}
    queue = [source]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        for pos, arc in enumerate(adj[node]):
            other = arc.head
            if arc.cap > FLOW_EPSILON and other not in parent and not retired[other]:
                parent[other] = (node, pos)
                if other == sink:
                    return parent
                queue.append(other)
    return None
