"""Dinic's algorithm (the paper's default Maxflow solver).

Dinic repeatedly (i) builds a *level graph* with a BFS over the residual
network and (ii) saturates a *blocking flow* in it with a DFS that advances
along level-increasing arcs only.  The implementation is fully iterative
(no recursion), skips retired nodes, and — crucially for the incremental
algorithms of Section 5 — is *resumable*: it reads nothing but the current
residual capacities, so it can be re-invoked after the network has been
extended (insertion case) or had flow withdrawn (deletion case) and will
find exactly the augmenting paths that are still missing.
"""

from __future__ import annotations

import math

from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.network import FLOW_EPSILON, FlowNetwork

_UNREACHED = -1


def dinic(
    network: FlowNetwork,
    source: int,
    sink: int,
    *,
    track_paths: bool = False,
) -> MaxflowRun:
    """Run Dinic from the network's current residual state.

    Args:
        network: the flow network; its residual state is mutated in place.
        source: index of the source node.
        sink: index of the sink node.
        track_paths: record every augmenting path (index sequences).  Off by
            default because recording costs memory proportional to total
            path length.

    Returns:
        A :class:`MaxflowRun` whose ``value`` is the flow added by this run.
    """
    if source == sink:
        return MaxflowRun(value=0.0)
    total = 0.0
    phases = 0
    n_paths = 0
    recorded: list[list[int]] = []
    adj = network._adj  # noqa: SLF001 - hot path, internal by design
    retired = network._retired  # noqa: SLF001
    n = len(adj)
    level = [_UNREACHED] * n
    iters = [0] * n

    while True:
        grown = _bfs_levels(adj, retired, level, source, sink)
        if not grown:
            break
        phases += 1
        n = len(adj)  # the network may have grown since the previous phase
        iters = [0] * n
        while True:
            pushed, path = _augment_once(
                adj, retired, level, iters, source, sink, track_paths
            )
            if pushed <= FLOW_EPSILON:
                break
            total += pushed
            n_paths += 1
            if track_paths and path is not None:
                recorded.append(path)
    return MaxflowRun(
        value=total, augmenting_paths=n_paths, phases=phases, paths=recorded
    )


def _bfs_levels(
    adj: list,
    retired: list[bool],
    level: list[int],
    source: int,
    sink: int,
) -> bool:
    """Assign BFS levels in the residual network; True if sink reached."""
    for i in range(len(level)):
        level[i] = _UNREACHED
    while len(level) < len(adj):
        level.append(_UNREACHED)
    if retired[source] or retired[sink]:
        return False
    level[source] = 0
    queue = [source]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        next_level = level[node] + 1
        for arc in adj[node]:
            other = arc.head
            if arc.cap > FLOW_EPSILON and level[other] == _UNREACHED and not retired[other]:
                level[other] = next_level
                if other == sink:
                    # Keep scanning current queue entries is unnecessary:
                    # levels beyond the sink's are never used by the DFS.
                    continue
                queue.append(other)
    return level[sink] != _UNREACHED


def _augment_once(
    adj: list,
    retired: list[bool],
    level: list[int],
    iters: list[int],
    source: int,
    sink: int,
    track_paths: bool,
) -> tuple[float, list[int] | None]:
    """Advance/retreat DFS: push one augmenting path in the level graph.

    Returns (pushed amount, path) — (0, None) when the level graph is
    exhausted.
    """
    # Stack of (node, arc position used to get here). The arc positions let
    # us both compute the bottleneck and apply the push on unwind.
    path_nodes = [source]
    path_arcs: list[tuple[int, int]] = []  # (tail, arc index in adj[tail])
    while True:
        node = path_nodes[-1]
        if node == sink:
            bottleneck = math.inf
            for tail, pos in path_arcs:
                residual = adj[tail][pos].cap
                if residual < bottleneck:
                    bottleneck = residual
            if not math.isfinite(bottleneck):
                # Every s-t path in a transformed network crosses a finite
                # capacity edge, so this indicates a malformed network.
                raise ArithmeticError("augmenting path with infinite bottleneck")
            for tail, pos in path_arcs:
                arc = adj[tail][pos]
                if not math.isinf(arc.cap):
                    arc.cap -= bottleneck
                adj[arc.head][arc.rev].cap += bottleneck
            recorded = list(path_nodes) if track_paths else None
            return bottleneck, recorded
        advanced = False
        arcs = adj[node]
        while iters[node] < len(arcs):
            arc = arcs[iters[node]]
            other = arc.head
            if (
                arc.cap > FLOW_EPSILON
                and not retired[other]
                and level[other] == level[node] + 1
            ):
                path_arcs.append((node, iters[node]))
                path_nodes.append(other)
                advanced = True
                break
            iters[node] += 1
        if advanced:
            continue
        # Dead end: remove the node from the level graph and retreat.
        level[node] = _UNREACHED
        if node == source:
            return 0.0, None
        path_nodes.pop()
        tail, _pos = path_arcs.pop()
        iters[tail] += 1
