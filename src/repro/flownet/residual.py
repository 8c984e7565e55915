"""Flow extraction, validation, and the persistent CSR residual arena.

The solvers leave the flow implicitly encoded in the residual state.  These
helpers decode it back into explicit per-edge assignments, verify the flow
axioms, and decompose a flow into paths — all of which the test-suite uses
to check Lemma 1 style equivalences.

This module also hosts :class:`ResidualArena`, the flat-array mirror of a
:class:`~repro.flownet.network.FlowNetwork` that the persistent Dinic
kernel (:func:`~repro.flownet.algorithms.dinic_flat_persistent.
dinic_flat_persistent`) operates on.  Unlike the per-run flatten of
``dinic_flat``, an arena is built once, *attached* to its network, and then
kept in sync incrementally.  Structural growth is deliberately *lazy*:
``add_edge`` merely journals the new edge's endpoints into :attr:`dirty`
(two list appends — the insertion case adds tens of thousands of edges
between kernel runs, so per-edge Python-level mirroring would dominate),
and :meth:`sync` replays the journal in one tight loop at kernel entry.
Capacity changes on already-mirrored edges (``push_on`` /
``set_capacity`` / ``disable_edge``) and retirements are applied eagerly,
since they are rare.  The kernel mutates the arena's ``caps`` array
directly and writes back only the arcs it actually touched, so the object
graph stays authoritative and the two views are byte-equivalent at every
kernel boundary.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.exceptions import FlowValidationError
from repro.flownet.network import FLOW_EPSILON, Arc, EdgeKind, FlowNetwork

#: Tolerance for conservation checks (scaled by magnitude internally).
_TOLERANCE = 1e-6

#: Level-array sentinels shared with the persistent kernel.  Retirement is
#: folded into the level labels so the kernel's hot loops need no separate
#: ``retired[]`` lookups: a retired node can never look "unvisited".
ARENA_UNREACHED = -1
ARENA_RETIRED = -2


class ResidualArena:
    """Persistent flat mirror of a :class:`FlowNetwork`'s residual state.

    Layout: every arc (both halves of every edge) occupies one *slot* of
    the parallel arrays ``heads`` / ``caps`` / ``rev`` (``rev[k]`` is the
    partner arc's slot), and ``arcs[k]`` keeps the slot's :class:`Arc`
    object so touched capacities can be written back in O(1).
    ``slots[i]`` lists node *i*'s arc slots in the same order as
    ``network.arcs_of(i)``.  A list-of-lists costs more to build than a
    CSR offset array, but the hot loops iterate each row thousands of
    times per build, and CPython iterates a materialised int list with no
    per-step allocation — measurably faster than ``range``-based CSR
    scans, which allocate an int per arc visited.

    ``level`` and ``iters`` are the kernel's scratch state, kept here so a
    resumed run allocates nothing: ``level`` doubles as the retirement mask
    (:data:`ARENA_RETIRED`), and ``stale_labels`` remembers which entries
    the previous BFS dirtied so clearing costs O(labelled), not O(n).

    Construction costs one O(|V| + |E|) sweep; afterwards edges appended to
    the network accumulate in the :attr:`dirty` journal (interleaved
    ``tail, head`` pairs, in insertion order) and :meth:`sync` mirrors them
    in one batch at the next kernel entry.  New nodes need no journal at
    all — ``sync`` discovers them by length.

    **Min-cut certificate.**  Every completed kernel run ends with a
    *backward* BFS from the sink that fails to reach the source, leaving
    T = ``{i : level[i] >= 0}`` as the residual can-reach-sink side: no
    positive residual arc enters T from outside.  The certificate
    (:attr:`cut_closed` / :attr:`cut_sink`) stays valid until a mutation
    *pierces* the cut — a new positive-capacity edge from outside T into
    it, or a manual push that opens such a residual arc; the
    ``FlowNetwork`` hooks check exactly this.  Nodes appended later are
    outside T by construction, and retiring a T-member only shrinks the
    set the hooks consider "inside"; a retired node cannot lie on an
    augmenting path, so arcs into it need no monitoring.  While the
    certificate holds, a kernel re-run towards ``cut_sink`` from any
    source outside T is a no-op and returns without touching the arrays —
    this is what makes resumed runs on unpierced states O(1) instead of
    O(|V| + |E|).
    """

    __slots__ = (
        "heads",
        "caps",
        "rev",
        "arcs",
        "slots",
        "level",
        "iters",
        "stale_labels",
        "dirty",
        "cut_closed",
        "cut_sink",
    )

    def __init__(self, network: FlowNetwork) -> None:
        adj = network._adj  # noqa: SLF001 - mirror construction
        retired = network._retired  # noqa: SLF001
        n = len(adj)
        # The build is on the per-state critical path (BFQ* clones drop the
        # arena, forcing a rebuild), so it is written as comprehensions —
        # several times faster than per-arc append loops on CPython.
        offsets = [0] * (n + 1)
        running = 0
        for i in range(n):
            running += len(adj[i])
            offsets[i + 1] = running
        self.slots = [list(range(offsets[i], offsets[i + 1])) for i in range(n)]
        self.heads: list[int] = [arc.head for row in adj for arc in row]
        self.caps: list[float] = [arc.cap for row in adj for arc in row]
        self.arcs: list[Arc] = [arc for row in adj for arc in row]
        self.rev: list[int] = [
            offsets[arc.head] + arc.rev for row in adj for arc in row
        ]
        self.level = [
            ARENA_RETIRED if flag else ARENA_UNREACHED for flag in retired
        ]
        self.iters = [0] * n
        self.stale_labels: list[int] = []
        #: Journal of edges appended since the last :meth:`sync`:
        #: interleaved ``tail, head`` index pairs in insertion order.
        self.dirty: list[int] = []
        # Min-cut certificate (see the class docstring): when the kernel's
        # final backward BFS fails, the labelled set T = {i : level[i] >= 0}
        # is the residual can-reach-sink side — no positive residual arc
        # enters it from outside.  While it stays closed (the mutation
        # hooks watch for piercings), a re-run towards ``cut_sink`` can
        # skip the BFS outright.
        self.cut_closed = False
        self.cut_sink = -1

    @classmethod
    def detached(
        cls,
        heads: list[int],
        caps: list[float],
        rev: list[int],
        slots: list[list[int]],
    ) -> "ResidualArena":
        """An arena over caller-built flat arrays, owned by no network.

        This is the transform compiler's entry point
        (:meth:`repro.core.skeleton.WindowSkeleton.materialize`): the
        candidate window is assembled straight into ``heads`` / ``caps`` /
        ``rev`` / ``slots`` and the kernel runs on it without any
        :class:`FlowNetwork` behind it.  ``arcs`` is ``None`` — there are
        no ``Arc`` objects to write back to — and the kernel skips its
        write-back accordingly.  Mutation hooks (:meth:`sync` and friends)
        must not be used on a detached arena.
        """
        arena = cls.__new__(cls)
        n = len(slots)
        arena.heads = heads
        arena.caps = caps
        arena.rev = rev
        arena.arcs = None  # type: ignore[assignment]
        arena.slots = slots
        arena.level = [ARENA_UNREACHED] * n
        arena.iters = [0] * n
        arena.stale_labels = []
        arena.dirty = []
        arena.cut_closed = False
        arena.cut_sink = -1
        return arena

    # ------------------------------------------------------------------
    # Batch catch-up (invoked by the kernel at entry)
    # ------------------------------------------------------------------
    def sync(self, network: FlowNetwork) -> None:
        """Mirror all nodes and edges appended since the last sync.

        Correctness of the journal replay relies on append order: within
        one ``add_edge`` the forward arc lands in ``adj[tail]`` before the
        reverse arc lands in ``adj[head]``, and the journal preserves the
        global insertion order, so for each ``(tail, head)`` pair the next
        unmirrored arc of ``tail`` is the forward half and the next
        unmirrored arc of ``head`` is the reverse half.
        """
        adj = network._adj  # noqa: SLF001 - mirror maintenance
        retired = network._retired  # noqa: SLF001
        slots = self.slots
        level = self.level
        iters = self.iters
        for i in range(len(slots), len(adj)):
            slots.append([])
            level.append(ARENA_RETIRED if retired[i] else ARENA_UNREACHED)
            iters.append(0)
        dirty = self.dirty
        if not dirty:
            return
        heads = self.heads
        caps = self.caps
        arcs = self.arcs
        rev = self.rev
        for position in range(0, len(dirty), 2):
            tail = dirty[position]
            head = dirty[position + 1]
            tail_row = slots[tail]
            head_row = slots[head]
            forward = adj[tail][len(tail_row)]
            reverse = adj[head][len(head_row)]
            forward_slot = len(heads)
            heads.append(forward.head)
            caps.append(forward.cap)
            arcs.append(forward)
            rev.append(forward_slot + 1)
            heads.append(reverse.head)
            caps.append(reverse.cap)
            arcs.append(reverse)
            rev.append(forward_slot)
            tail_row.append(forward_slot)
            head_row.append(forward_slot + 1)
        del dirty[:]

    # ------------------------------------------------------------------
    # Eager hooks (invoked by the owning FlowNetwork; rare events)
    # ------------------------------------------------------------------
    def on_retire_node(self, index: int) -> None:
        """A node was retired; fold it into the level mask permanently."""
        if index < len(self.level):
            self.level[index] = ARENA_RETIRED
        # else: not mirrored yet — sync() reads the retirement flag.

    def on_edge_caps_changed(self, tail: int, position: int) -> None:
        """Both halves of edge ``(tail, position)`` may have new capacities."""
        if tail >= len(self.slots):
            return  # unmirrored node — sync() reads the caps fresh
        slot_row = self.slots[tail]
        if position >= len(slot_row):
            return  # unmirrored edge — still in the dirty journal
        forward_slot = slot_row[position]
        self.caps[forward_slot] = self.arcs[forward_slot].cap
        reverse_slot = self.rev[forward_slot]
        self.caps[reverse_slot] = self.arcs[reverse_slot].cap

    def resync(self) -> None:
        """Recopy every mirrored capacity from the arc objects."""
        self.cut_closed = False  # bulk capacity changes void the certificate
        caps = self.caps
        for k, arc in enumerate(self.arcs):
            caps[k] = arc.cap

    # ------------------------------------------------------------------
    # Introspection (tests / debugging)
    # ------------------------------------------------------------------
    def mirrors(self, network: FlowNetwork) -> bool:
        """Whether the arrays are byte-equivalent to the object graph.

        Catches up the lazy journal first, so this asserts the invariant
        the kernel sees at entry (and leaves behind at exit).
        """
        self.sync(network)
        adj = network._adj  # noqa: SLF001
        retired = network._retired  # noqa: SLF001
        if len(self.slots) != len(adj):
            return False
        for i, arcs in enumerate(adj):
            slot_row = self.slots[i]
            if len(slot_row) != len(arcs):
                return False
            if retired[i] != (self.level[i] == ARENA_RETIRED):
                return False
            for j, arc in enumerate(arcs):
                k = slot_row[j]
                if self.heads[k] != arc.head or self.arcs[k] is not arc:
                    return False
                cap = self.caps[k]
                if cap != arc.cap and not (math.isnan(cap) and math.isnan(arc.cap)):
                    return False
                if self.rev[k] != self.slots[arc.head][arc.rev]:
                    return False
        return True


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
