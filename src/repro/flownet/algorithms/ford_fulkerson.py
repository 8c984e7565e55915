"""Ford-Fulkerson with depth-first augmenting paths.

The historical first Maxflow algorithm [13].  Present for the Table-4
comparison; its O(|E| * |f|) behaviour on adversarial capacities is part of
what that comparison demonstrates.  A safety valve bounds the number of
augmentations so float capacities cannot loop effectively forever.
"""

from __future__ import annotations

import math

from repro.exceptions import SolverError
from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.network import FLOW_EPSILON, FlowNetwork

#: Upper bound on augmentations before we conclude something is wrong.
MAX_AUGMENTATIONS = 1_000_000


def ford_fulkerson(network: FlowNetwork, source: int, sink: int) -> MaxflowRun:
    """Augment along arbitrary (DFS-first) residual paths until none remain."""
    if source == sink:
        return MaxflowRun(value=0.0)
    adj = network._adj  # noqa: SLF001 - hot path
    retired = network._retired  # noqa: SLF001
    total = 0.0
    n_paths = 0
    while True:
        path = _dfs_path(adj, retired, source, sink)
        if path is None:
            break
        bottleneck = min(adj[tail][pos].cap for tail, pos in path)
        if not math.isfinite(bottleneck):
            raise ArithmeticError("augmenting path with infinite bottleneck")
        for tail, pos in path:
            arc = adj[tail][pos]
            if not math.isinf(arc.cap):
                arc.cap -= bottleneck
            adj[arc.head][arc.rev].cap += bottleneck
        total += bottleneck
        n_paths += 1
        if n_paths > MAX_AUGMENTATIONS:
            raise SolverError(
                "Ford-Fulkerson exceeded the augmentation budget; "
                "use Dinic for this network"
            )
    return MaxflowRun(value=total, augmenting_paths=n_paths, phases=n_paths)


def _dfs_path(
    adj: list, retired: list[bool], source: int, sink: int
) -> list[tuple[int, int]] | None:
    """Iterative DFS for any residual path; returns [(tail, arc pos)] or None."""
    if retired[source] or retired[sink]:
        return None
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
        if arc.cap > FLOW_EPSILON and other not in seen and not retired[other]:
            path.append((node, pos))
            if other == sink:
                return path
            seen.add(other)
            stack.append((other, 0))
    return None
