"""Arc-based flow network with residual semantics.

This is the object-graph flow network: the classical Maxflow solvers (the
Table-4 columns), the baselines, the min-cut certificates and the
differential oracle work on it.  The delta-BFlow engine does not — it runs
on flat residual arenas (:class:`~repro.flownet.residual.ResidualArena`)
and exports a ``FlowNetwork`` only on demand, for certificates and
debugging.  Design points:

* **Paired arcs.**  Every edge is stored as a pair of arcs: the forward arc
  starts with residual capacity equal to the edge capacity, the reverse arc
  with zero.  Pushing ``x`` units moves ``x`` of residual capacity from an
  arc to its partner.  The flow currently on an edge is therefore the
  residual capacity of its reverse arc — no separate flow bookkeeping.
  Because each edge owns its own pair, parallel and antiparallel edges are
  handled natively (the paper's footnote-2 node-splitting rewrite is not
  needed).

* **Dynamic growth.**  Nodes and edges can be appended at any time, and the
  in-place solvers are resumable: a re-run on a grown network finds only
  the missing augmenting paths (the Lemma-3 insertion argument).

* **Node retirement.**  Rather than physically deleting arcs, nodes are
  marked *retired*; all traversals skip them.  This is O(1) per node and
  keeps arc handles stable (the Lemma-4 deletion case retires a prefix).

* **Snapshots.**  :meth:`clone` deep-copies the residual state.

* **Infinite capacities.**  Hold ("timestamp-inline") edges have capacity
  ``math.inf``.  Every augmenting path also crosses a finite capacity edge,
  so bottlenecks remain finite and the arithmetic stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Iterator

from repro.exceptions import GraphError, UnknownNodeError

Label = Hashable

#: Numerical slack used when comparing float capacities.
FLOW_EPSILON = 1e-9


class EdgeKind(Enum):
    """Role of an edge inside a transformed flow network."""

    CAPACITY = "capacity"  # image of a temporal edge (finite capacity)
    HOLD = "hold"  # timestamp-inline chain edge (infinite capacity)
    VIRTUAL = "virtual"  # withdrawal plumbing for the deletion case
    PLAIN = "plain"  # ordinary edge of a classical flow network


class Arc:
    """Half of an edge: a directed residual arc.

    ``cap`` is the *remaining* (residual) capacity.  ``rev`` indexes the
    partner arc inside ``adj[head]``.  ``forward`` marks which of the pair
    is the original edge direction.
    """

    __slots__ = ("head", "cap", "rev", "forward", "kind", "meta")

    def __init__(
        self,
        head: int,
        cap: float,
        rev: int,
        forward: bool,
        kind: EdgeKind,
        meta: object = None,
    ) -> None:
        self.head = head
        self.cap = cap
        self.rev = rev
        self.forward = forward
        self.kind = kind
        self.meta = meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        direction = "fwd" if self.forward else "rev"
        return f"Arc(head={self.head}, cap={self.cap}, {direction}, {self.kind.value})"


@dataclass(frozen=True, slots=True)
class EdgeRef:
    """Stable handle to an edge: the forward arc's position in the network."""

    tail: int
    index: int


class FlowNetwork:
    """A mutable flow network over hashable node labels.

    All solver-facing operations work on integer node indices for speed;
    label-based helpers are provided for construction and inspection.
    """

    def __init__(self) -> None:
        self._adj: list[list[Arc]] = []
        self._labels: list[Label] = []
        self._index_of: dict[Label, int] = {}
        self._retired: list[bool] = []
        self._num_edges = 0
        # Monotone mutation counter, bumped by every structural or capacity
        # change.  Lets observers fingerprint a network state without
        # diffing arcs.
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Monotone mutation counter; bumps on any structural/capacity change."""
        return self._epoch

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, label: Label) -> int:
        """Add a node (idempotent); returns its index."""
        existing = self._index_of.get(label)
        if existing is not None:
            return existing
        index = len(self._adj)
        self._adj.append([])
        self._labels.append(label)
        self._retired.append(False)
        self._index_of[label] = index
        self._epoch += 1
        return index

    def has_node(self, label: Label) -> bool:
        """Whether a node with this label exists."""
        return label in self._index_of

    def index_of(self, label: Label) -> int:
        """The node index for a label (UnknownNodeError when absent)."""
        try:
            return self._index_of[label]
        except KeyError:
            raise UnknownNodeError(label) from None

    def label_of(self, index: int) -> Label:
        """The label of a node index."""
        return self._labels[index]

    @property
    def num_nodes(self) -> int:
        """Total nodes ever added (including retired ones)."""
        return len(self._adj)

    @property
    def num_active_nodes(self) -> int:
        """Nodes not yet retired."""
        return sum(1 for retired in self._retired if not retired)

    @property
    def num_edges(self) -> int:
        """Total edges added (arc pairs)."""
        return self._num_edges

    def retire_node(self, index: int) -> None:
        """Mark a node as deleted; traversals will skip it."""
        self._retired[index] = True
        self._epoch += 1

    def retire_label(self, label: Label) -> None:
        """Retire a node by label."""
        self.retire_node(self.index_of(label))

    def is_retired(self, index: int) -> bool:
        """Whether a node index has been retired."""
        return self._retired[index]

    def active_indices(self) -> Iterator[int]:
        """Iterate the indices of non-retired nodes."""
        for index, retired in enumerate(self._retired):
            if not retired:
                yield index

    def labels(self) -> Iterator[Label]:
        """All node labels, including retired ones."""
        return iter(self._labels)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(
        self,
        tail: int,
        head: int,
        capacity: float,
        *,
        kind: EdgeKind = EdgeKind.PLAIN,
        meta: object = None,
    ) -> EdgeRef:
        """Add a directed edge with the given capacity; returns its handle."""
        if capacity < 0:
            raise GraphError(f"negative capacity {capacity}")
        if not (0 <= tail < len(self._adj)) or not (0 <= head < len(self._adj)):
            raise GraphError(f"edge endpoints out of range: {tail} -> {head}")
        if tail == head:
            raise GraphError(f"self loop at node index {tail}")
        fwd_pos = len(self._adj[tail])
        rev_pos = len(self._adj[head])
        forward = Arc(head, capacity, rev_pos, True, kind, meta)
        reverse = Arc(tail, 0.0, fwd_pos, False, kind, meta)
        self._adj[tail].append(forward)
        self._adj[head].append(reverse)
        self._num_edges += 1
        self._epoch += 1
        return EdgeRef(tail, fwd_pos)

    def add_edge_labeled(
        self,
        tail: Label,
        head: Label,
        capacity: float,
        *,
        kind: EdgeKind = EdgeKind.PLAIN,
        meta: object = None,
    ) -> EdgeRef:
        """Label-based convenience wrapper around :meth:`add_edge`."""
        return self.add_edge(
            self.add_node(tail), self.add_node(head), capacity, kind=kind, meta=meta
        )

    def arcs_of(self, index: int) -> list[Arc]:
        """The (mutable) arc list of a node — solvers iterate this directly."""
        return self._adj[index]

    def forward_arc(self, ref: EdgeRef) -> Arc:
        """The forward arc an EdgeRef points at."""
        arc = self._adj[ref.tail][ref.index]
        if not arc.forward:
            raise GraphError("EdgeRef does not point at a forward arc")
        return arc

    def reverse_arc(self, ref: EdgeRef) -> Arc:
        """The paired reverse arc of an edge."""
        forward = self.forward_arc(ref)
        return self._adj[forward.head][forward.rev]

    # ------------------------------------------------------------------
    # Flow accounting
    # ------------------------------------------------------------------
    def flow_on(self, ref: EdgeRef) -> float:
        """Flow currently routed through an edge (= reverse residual cap)."""
        return self.reverse_arc(ref).cap

    def edge_capacity(self, ref: EdgeRef) -> float:
        """Original capacity of an edge (forward residual + flow)."""
        forward = self.forward_arc(ref)
        if math.isinf(forward.cap):
            return math.inf
        return forward.cap + self.reverse_arc(ref).cap

    def push_on(self, ref: EdgeRef, amount: float) -> None:
        """Manually push flow along an edge (used by the operators module)."""
        forward = self.forward_arc(ref)
        reverse = self.reverse_arc(ref)
        if amount < 0 and reverse.cap + amount < -FLOW_EPSILON:
            raise GraphError(f"cannot withdraw {-amount}: only {reverse.cap} routed")
        if amount > 0 and not math.isinf(forward.cap) and forward.cap - amount < -FLOW_EPSILON:
            raise GraphError(f"cannot push {amount}: only {forward.cap} residual")
        if not math.isinf(forward.cap):
            forward.cap -= amount
        reverse.cap += amount
        self._epoch += 1

    def set_capacity(self, ref: EdgeRef, capacity: float) -> None:
        """Reset an edge's capacity, preserving currently routed flow."""
        forward = self.forward_arc(ref)
        routed = self.reverse_arc(ref).cap
        if capacity + FLOW_EPSILON < routed:
            raise GraphError(
                f"new capacity {capacity} is below routed flow {routed}"
            )
        forward.cap = capacity - routed if not math.isinf(capacity) else math.inf
        self._epoch += 1

    def iter_edges(self) -> Iterator[tuple[int, Arc]]:
        """Iterate (tail index, forward arc) for every edge."""
        for tail, arcs in enumerate(self._adj):
            for arc in arcs:
                if arc.forward:
                    yield (tail, arc)

    def out_flow(self, index: int, *, kinds: tuple[EdgeKind, ...] | None = None) -> float:
        """Total flow leaving node ``index`` on forward arcs (optionally filtered)."""
        total = 0.0
        for arc in self._adj[index]:
            if not arc.forward:
                continue
            if kinds is not None and arc.kind not in kinds:
                continue
            total += self._adj[arc.head][arc.rev].cap
        return total

    def in_flow(self, index: int, *, kinds: tuple[EdgeKind, ...] | None = None) -> float:
        """Total flow entering node ``index`` on forward arcs."""
        total = 0.0
        for arc in self._adj[index]:
            if arc.forward:
                continue
            if kinds is not None and arc.kind not in kinds:
                continue
            # ``arc`` is the reverse half: its cap *is* the routed flow.
            total += arc.cap
        return total

    def clear_flow(self) -> None:
        """Reset every edge to zero flow (restores full forward capacity)."""
        for tail, arcs in enumerate(self._adj):
            for arc in arcs:
                if arc.forward:
                    reverse = self._adj[arc.head][arc.rev]
                    if not math.isinf(arc.cap):
                        arc.cap += reverse.cap
                    reverse.cap = 0.0
        self._epoch += 1

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def clone(self) -> "FlowNetwork":
        """Deep copy of the full residual state (labels, arcs, retirements)."""
        other = FlowNetwork.__new__(FlowNetwork)
        other._epoch = self._epoch
        other._labels = list(self._labels)
        other._index_of = dict(self._index_of)
        other._retired = list(self._retired)
        other._num_edges = self._num_edges
        other._adj = [
            [Arc(a.head, a.cap, a.rev, a.forward, a.kind, a.meta) for a in arcs]
            for arcs in self._adj
        ]
        return other

    # ------------------------------------------------------------------
    # Debug / validation helpers
    # ------------------------------------------------------------------
    def check_conservation(
        self,
        *,
        exempt: tuple[int, ...] = (),
        tolerance: float = 1e-6,
        node_filter: Callable[[int], bool] | None = None,
    ) -> None:
        """Assert flow conservation at every active, non-exempt node."""
        exempt_set = set(exempt)
        for index in self.active_indices():
            if index in exempt_set:
                continue
            if node_filter is not None and not node_filter(index):
                continue
            balance = self.in_flow(index) - self.out_flow(index)
            if abs(balance) > tolerance:
                raise GraphError(
                    f"conservation violated at {self._labels[index]!r}: "
                    f"balance {balance}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowNetwork(nodes={self.num_nodes}, active={self.num_active_nodes}, "
            f"edges={self.num_edges})"
        )
