"""Flow extraction, validation, and the flat residual arena.

The solvers leave the flow implicitly encoded in the residual state.  These
helpers decode it back into explicit per-edge assignments, verify the flow
axioms, and decompose a flow into paths — all of which the test-suite uses
to check Lemma 1 style equivalences.

This module also hosts :class:`ResidualArena`, the flat residual state the
persistent Dinic kernel (:func:`~repro.flownet.algorithms.
dinic_flat_persistent.arena_maxflow`) runs on.  It is the engine's one
representation of a transformed network: the incremental state
(:class:`repro.core.incremental.IncrementalTransformedNetwork`), the one
arena builder, writes every window into one — BFQ's independent windows
are fresh states — and grows, shrinks and clones it in place.  No object
graph shadows it, so there is no journal to replay and no write-back; the
object graph is an on-demand export (``to_flow_network``) for
certificates and debugging.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.exceptions import FlowValidationError
from repro.flownet.network import FLOW_EPSILON, EdgeKind, FlowNetwork

#: Tolerance for conservation checks (scaled by magnitude internally).
_TOLERANCE = 1e-6

#: Level-array sentinels shared with the persistent kernel.  Retirement is
#: folded into the level labels so the kernel's hot loops need no separate
#: ``retired[]`` lookups: a retired node can never look "unvisited".
ARENA_UNREACHED = -1
ARENA_RETIRED = -2


class ResidualArena:
    """Flat residual state of a flow network, persistent across kernel runs.

    Layout: every arc (both halves of every edge) occupies one *slot* of
    the parallel arrays ``heads`` / ``caps``.  An edge's two arcs form a
    slot pair: the forward arc sits in an even slot ``k`` and its reverse
    in ``k + 1``, so the partner of any slot ``k`` is ``k ^ 1``: ``heads[k]``
    is the arc's head and ``heads[k ^ 1]`` its tail.  ``slots[i]`` lists
    node *i*'s arc slots in insertion order, which fixes the order the
    kernel scans them in.  A
    list-of-lists costs more to build than a CSR offset array, but the hot
    loops iterate each row thousands of times per build, and CPython
    iterates a materialised int list with no per-step allocation —
    measurably faster than ``range``-based CSR scans, which allocate an int
    per arc visited.

    ``level`` and ``iters`` are the kernel's scratch state, kept here so a
    resumed run allocates nothing: ``level`` doubles as the retirement mask
    (:data:`ARENA_RETIRED`), and ``stale_labels`` remembers which entries
    the previous level search labelled so clearing costs O(labelled), not
    O(n).
    """

    __slots__ = (
        "heads",
        "caps",
        "slots",
        "level",
        "iters",
        "stale_labels",
    )

    def __init__(
        self,
        heads: list[int],
        caps: list[float],
        slots: list[list[int]],
    ) -> None:
        n = len(slots)
        self.heads = heads
        self.caps = caps
        self.slots = slots
        self.level = [ARENA_UNREACHED] * n
        self.iters = [0] * n
        self.stale_labels: list[int] = []


def extract_flow(
    network: FlowNetwork, *, kinds: tuple[EdgeKind, ...] | None = None
) -> dict[tuple[int, int], float]:
    """Read the routed flow off every (active) forward edge.

    Returns a dict mapping (tail index, head index) to total flow; parallel
    edges are merged.  Retired endpoints are skipped.
    """
    flows: dict[tuple[int, int], float] = defaultdict(float)
    for tail, arc in network.iter_edges():
        if network.is_retired(tail) or network.is_retired(arc.head):
            continue
        if kinds is not None and arc.kind not in kinds:
            continue
        routed = network._adj[arc.head][arc.rev].cap  # noqa: SLF001
        if routed > FLOW_EPSILON:
            flows[(tail, arc.head)] += routed
    return dict(flows)


def flow_value_at(network: FlowNetwork, source: int) -> float:
    """Net flow leaving ``source`` (out minus in on forward edges)."""
    return network.out_flow(source) - network.in_flow(source)


def validate_classical_flow(
    network: FlowNetwork, source: int, sink: int
) -> float:
    """Verify capacity + conservation; returns the flow value.

    Raises:
        FlowValidationError: on any violated axiom.
    """
    balance: dict[int, float] = defaultdict(float)
    for tail, arc in network.iter_edges():
        if network.is_retired(tail) or network.is_retired(arc.head):
            continue
        routed = network._adj[arc.head][arc.rev].cap  # noqa: SLF001
        if routed < -FLOW_EPSILON:
            raise FlowValidationError(
                f"negative flow {routed} on edge "
                f"{network.label_of(tail)!r} -> {network.label_of(arc.head)!r}"
            )
        if math.isfinite(arc.cap) and arc.cap < -FLOW_EPSILON:
            raise FlowValidationError(
                f"negative residual {arc.cap} on edge "
                f"{network.label_of(tail)!r} -> {network.label_of(arc.head)!r}"
            )
        balance[tail] -= routed
        balance[arc.head] += routed
    for node, net in balance.items():
        if node in (source, sink):
            continue
        if abs(net) > _TOLERANCE * max(1.0, abs(net)) + _TOLERANCE:
            raise FlowValidationError(
                f"conservation violated at {network.label_of(node)!r}: {net}"
            )
    out_value = -balance.get(source, 0.0)
    in_value = balance.get(sink, 0.0)
    if abs(out_value - in_value) > _TOLERANCE * max(1.0, out_value, in_value):
        raise FlowValidationError(
            f"source emits {out_value} but sink absorbs {in_value}"
        )
    return out_value


def decompose_into_paths(
    network: FlowNetwork, source: int, sink: int
) -> list[tuple[list[int], float]]:
    """Decompose the routed flow into (path, amount) pairs.

    Standard flow decomposition by repeatedly tracing a positive-flow path
    from source to sink and subtracting its bottleneck.  Cycles (possible in
    principle after withdrawals) are cancelled silently.  The input network
    is not modified; decomposition works on a copy of the flow.
    """
    flows = defaultdict(float)
    adjacency: dict[int, list[int]] = defaultdict(list)
    for (tail, head), amount in extract_flow(network).items():
        flows[(tail, head)] = amount
        adjacency[tail].append(head)

    paths: list[tuple[list[int], float]] = []
    guard = 0
    while True:
        guard += 1
        if guard > 10_000_000:  # pragma: no cover - safety valve
            raise FlowValidationError("flow decomposition did not terminate")
        path = _trace_path(flows, adjacency, source, sink)
        if path is None:
            break
        bottleneck = min(
            flows[(path[i], path[i + 1])] for i in range(len(path) - 1)
        )
        for i in range(len(path) - 1):
            key = (path[i], path[i + 1])
            flows[key] -= bottleneck
            if flows[key] <= FLOW_EPSILON:
                flows[key] = 0.0
        if path[0] == source and path[-1] == sink:
            paths.append((path, bottleneck))
        # else: a cycle got cancelled; nothing to record.
    return paths


def _trace_path(
    flows: dict[tuple[int, int], float],
    adjacency: dict[int, list[int]],
    source: int,
    sink: int,
) -> list[int] | None:
    """Follow positive-flow edges from source; detect cycles on the way."""
    path = [source]
    position: dict[int, int] = {source: 0}
    node = source
    while node != sink:
        next_node = None
        for head in adjacency.get(node, []):
            if flows.get((node, head), 0.0) > FLOW_EPSILON:
                next_node = head
                break
        if next_node is None:
            return None
        if next_node in position:
            # Found a cycle: return just the cycle for cancellation.
            start = position[next_node]
            return path[start:] + [next_node]
        path.append(next_node)
        position[next_node] = len(path) - 1
        node = next_node
    return path
