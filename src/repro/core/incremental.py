"""Incrementally maintained transformed networks (Section 5).

:class:`IncrementalTransformedNetwork` is the engine room of BFQ+ and BFQ*.
It maintains a live transformed network together with the residual state of
the Maxflow found so far, and supports the two structural moves the paper's
incremental lemmas describe:

* :meth:`extend_end` — the **insertion case** (Lemma 3).  Increasing
  ``tau_e`` only inserts nodes and edges, so the residual state (and with it
  every augmenting path found so far) stays valid; a subsequent Dinic run
  finds only the new augmenting paths.

* :meth:`advance_start` — the **deletion case** (Lemma 4/5).  Increasing
  ``tau_s`` removes a prefix of the network.  Flow crossing the new start
  boundary is *withdrawn*: hold edges spanning the boundary are split by
  timestamp injection (``Δ``), a virtual node absorbs the crossing flow
  through reverse Dinic from the sink, and the prefix is retired.

  One deliberate deviation from the paper's operator order: the prefix is
  retired *before* the withdrawal Dinic runs, so withdrawal paths cannot
  meander through soon-to-be-deleted nodes.  This realises exactly the
  canonical path set ``P`` whose existence Lemma 5 proves, and guarantees
  per-boundary-node balance after the prefix disappears (the paper's
  formulation reaches the same state through the
  ``(N_f ⊎ N(P)) \\ (N_[tau_s,tau_s'] \\ N_[tau_s',tau_s'])`` algebra).

The state *is* its residual arena (:class:`~repro.flownet.residual.
ResidualArena`): the flat ``heads`` / ``caps`` / ``rev`` / ``slots`` /
``level`` arrays the persistent Dinic kernel runs on, laid out like
:meth:`~repro.core.skeleton.WindowSkeleton.materialize`'s windows — each
edge is a forward arc in an even slot ``k`` and its reverse in ``k + 1``,
and a node's slots are listed in insertion order.  Every move above writes
those arrays directly; there is no second representation to keep in step.
:meth:`to_flow_network` exports the state, routed flow included, as the
object-graph :class:`~repro.core.transform.TransformedNetwork` for
certificates and debugging.

Flow-value accounting uses the invariant measure ``|f| =`` flow leaving the
*active* source timeline on capacity edges, which survives both moves.
"""

from __future__ import annotations

import bisect
import math

from repro.exceptions import GraphError, InvalidIntervalError
from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.algorithms.dinic_flat_persistent import arena_maxflow
from repro.flownet.network import EdgeKind, EdgeRef, FlowNetwork
from repro.flownet.residual import ARENA_RETIRED, ARENA_UNREACHED, ResidualArena
from repro.core.skeleton import WindowSkeleton
from repro.core.transform import TransformedNetwork, reachable_edges
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork

#: Tolerance when asserting complete withdrawal of boundary-crossing flow.
_WITHDRAW_TOLERANCE = 1e-6

_INF = math.inf


class IncrementalTransformedNetwork:
    """A transformed network that can grow at the end and shrink at the start.

    Every Maxflow run is the persistent arena Dinic
    (:func:`~repro.flownet.algorithms.dinic_flat_persistent.arena_maxflow`)
    on the state's own :attr:`arena`.

    Edge inclusion follows the caller's input.  With a compiled
    ``skeleton`` (BFQ+/BFQ* share one per query) every extension is a
    binary-searched slice of the per-start reachability index.  With
    ``skeleton=None`` each extension runs
    :func:`~repro.core.transform.reachable_edges` against the live temporal
    network, which is what a network that keeps growing after the state is
    built needs (a skeleton is a frozen snapshot).
    """

    def __init__(
        self,
        temporal: TemporalFlowNetwork,
        source: NodeId,
        sink: NodeId,
        tau_s: Timestamp,
        tau_e: Timestamp,
        *,
        skeleton: WindowSkeleton | None = None,
    ) -> None:
        if tau_e <= tau_s:
            raise InvalidIntervalError(f"window [{tau_s}, {tau_e}] is degenerate")
        self._skeleton = skeleton
        self.temporal = temporal
        self.source = source
        self.sink = sink
        self.tau_s = tau_s
        self.tau_e = tau_e
        # Earliest-arrival labels from the *original* source timestamp.
        # After advance_start these become lower bounds for the current
        # source, which keeps edge inclusion sound (a superset of the
        # edges reachable from the current source is materialised).
        self._arrival: dict[NodeId, float] = {}
        self.arena = ResidualArena([], [], [], [])
        # Node index -> label ``(node, tau)`` (withdrawal nodes carry a
        # 3-tuple label), and its inverse.  Retired labels stay mapped.
        self._labels: list[tuple] = []
        self._index_of: dict[tuple, int] = {}
        self._active = 0
        # Sorted active timeline stamps per temporal node.
        self._timeline: dict[NodeId, list[Timestamp]] = {}
        # Forward slot of the hold edge into ``<node, stamp>``, keyed by
        # its *head* label.
        self._hold_into: dict[tuple[NodeId, Timestamp], int] = {}
        # Forward slots of every capacity edge leaving the source timeline.
        self.source_arcs: list[int] = []
        # Order matters: the source boundary node comes first (its event
        # stamps are >= tau_s, so the timeline appends monotonically), the
        # sink boundary node last (its event stamps are <= tau_e).
        self._ensure_timeline_node(source, tau_s)
        self._include_window(tau_s, tau_e)
        self._ensure_timeline_node(sink, tau_e)
        self._sync_endpoints()

    # ------------------------------------------------------------------
    # Public views
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``|V'|`` — active transformed nodes (a live count, O(1))."""
        return self._active

    @property
    def num_edges(self) -> int:
        """Edges ever inserted (arc pairs), retired ones included."""
        return len(self.arena.heads) // 2

    def flow_value(self) -> float:
        """``|f|`` for the current residual state.

        :meth:`advance_start` drops source arcs whose tail it retires, and
        a capacity edge's endpoints share one stamp, so every listed arc
        is live.
        """
        caps = self.arena.caps
        return sum(caps[slot + 1] for slot in self.source_arcs)

    def run_maxflow(self, *, value_bound: float | None = None) -> MaxflowRun:
        """Resume Dinic on the current residual state (Lemma 3 / Lemma 4).

        ``value_bound`` optionally caps how much this run can possibly add
        (Observation 2: sink capacity inserted since the last computed
        Maxflow).  The kernel uses it to certify maximality without its
        final failed level search.
        """
        return arena_maxflow(
            self.arena, self.source_index, self.sink_index,
            value_bound=value_bound,
        )

    def to_flow_network(self) -> TransformedNetwork:
        """Export the state as an object-graph transform, routed flow included.

        Node indices, per-node arc order and residual capacities are the
        arena's, and retired nodes stay present but retired, so
        ``source_index`` / ``sink_index`` carry over and the export
        certifies exactly the flow the kernel routed.  An export is a
        snapshot: later moves on the state do not reach it.
        """
        network = FlowNetwork()
        labels = self._labels
        for label in labels:
            network.add_node(label)
        arena = self.arena
        heads = arena.heads
        caps = arena.caps
        refs: dict[int, EdgeRef] = {}
        for slot in range(0, len(heads), 2):
            tail = heads[slot + 1]
            head = heads[slot]
            tail_label = labels[tail]
            head_label = labels[head]
            if len(tail_label) != 2 or len(head_label) != 2:
                kind, meta = EdgeKind.VIRTUAL, "withdrawal"
            elif tail_label[0] == head_label[0]:
                kind, meta = EdgeKind.HOLD, tail_label[0]
            else:
                kind = EdgeKind.CAPACITY
                meta = (tail_label[0], head_label[0], tail_label[1])
            ref = network.add_edge(tail, head, 0.0, kind=kind, meta=meta)
            network.forward_arc(ref).cap = caps[slot]
            network.reverse_arc(ref).cap = caps[slot + 1]
            refs[slot] = ref
        for index, mark in enumerate(arena.level):
            if mark == ARENA_RETIRED:
                network.retire_node(index)
        return TransformedNetwork(
            flow_network=network,
            source=self.source,
            sink=self.sink,
            tau_s=self.tau_s,
            tau_e=self.tau_e,
            source_index=self.source_index,
            sink_index=self.sink_index,
            source_capacity_arcs=[refs[slot] for slot in self.source_arcs],
        )

    #: A read-compatible :class:`TransformedNetwork` view of the state.
    as_transformed = to_flow_network

    def clone(self) -> "IncrementalTransformedNetwork":
        """Deep copy of the state (BFQ*'s mid-sweep snapshot).

        The copy is *compacted*: nodes retired by earlier
        :meth:`advance_start` calls and every arc touching them are dropped
        and the surviving slots renumbered, so successive BFQ* generations
        do not inherit dead prefixes (this mirrors the paper's operator
        semantics, where the subtracted prefix simply no longer exists in
        the new network).  Each surviving node keeps its arcs in the same
        order, so the kernel scans — and augments — exactly as it would on
        the original.  The copy's kernel scratch state starts fresh.
        """
        arena = self.arena
        level = arena.level
        heads = arena.heads
        caps = arena.caps
        node_map = [-1] * len(level)
        labels: list[tuple] = []
        for index, mark in enumerate(level):
            if mark != ARENA_RETIRED:
                node_map[index] = len(labels)
                labels.append(self._labels[index])
        slot_map = [-1] * len(heads)
        new_heads: list[int] = []
        new_caps: list[float] = []
        for slot in range(0, len(heads), 2):
            head = node_map[heads[slot]]
            tail = node_map[heads[slot + 1]]
            if head < 0 or tail < 0:
                continue
            new_slot = len(new_heads)
            slot_map[slot] = new_slot
            slot_map[slot + 1] = new_slot + 1
            new_heads += (head, tail)
            new_caps += (caps[slot], caps[slot + 1])
        new_slots = [
            [slot_map[slot] for slot in row if slot_map[slot] >= 0]
            for row, mark in zip(arena.slots, level)
            if mark != ARENA_RETIRED
        ]

        other = IncrementalTransformedNetwork.__new__(IncrementalTransformedNetwork)
        other._skeleton = self._skeleton  # compiled index; safely shared
        other.temporal = self.temporal
        other.source = self.source
        other.sink = self.sink
        other.tau_s = self.tau_s
        other.tau_e = self.tau_e
        other._arrival = dict(self._arrival)
        other.arena = ResidualArena(
            new_heads,
            new_caps,
            [slot ^ 1 for slot in range(len(new_heads))],
            new_slots,
        )
        other._labels = labels
        other._index_of = {label: index for index, label in enumerate(labels)}
        other._active = len(labels)
        index_of = other._index_of
        other._timeline = {}
        for node, timeline in self._timeline.items():
            kept = [tau for tau in timeline if (node, tau) in index_of]
            if kept:
                other._timeline[node] = kept
        other._hold_into = {
            key: slot_map[slot]
            for key, slot in self._hold_into.items()
            if slot_map[slot] >= 0
        }
        other.source_arcs = [
            slot_map[slot] for slot in self.source_arcs if slot_map[slot] >= 0
        ]
        other._sync_endpoints()
        return other

    # ------------------------------------------------------------------
    # Insertion case (Lemma 3)
    # ------------------------------------------------------------------
    def extend_end(self, new_tau_e: Timestamp) -> None:
        """Grow the window to ``[tau_s, new_tau_e]`` in place.

        Equivalent to ``N_f ⊎ (N_[tau_e, new_tau_e] \\ N_[tau_e, tau_e])``
        followed by re-pointing the sink at ``<t, new_tau_e>``.
        """
        if new_tau_e <= self.tau_e:
            raise InvalidIntervalError(
                f"extend_end must move forward: {new_tau_e} <= {self.tau_e}"
            )
        old_tau_e = self.tau_e
        # New edges live strictly after the old end (an edge exactly at the
        # old end was already included).
        self._include_window(self.tau_e + 1, new_tau_e)
        self.tau_e = new_tau_e
        self._ensure_timeline_node(self.sink, new_tau_e)
        self._re_terminate_sink_flow(old_tau_e)
        self._sync_endpoints()

    def _re_terminate_sink_flow(self, old_tau_e: Timestamp) -> None:
        """Push flow stored at the old sink node forward to the new one.

        Lemma 3's proof re-terminates every previously found augmenting
        path at the new sink by assigning its flow to the freshly inlined
        hold edges of ``t``.  Doing the same keeps the residual state
        canonical, which the deletion case relies on: withdrawal paths
        trace the flow *backwards from the current sink*.
        """
        caps = self.arena.caps
        # Reverse arcs (odd slots) hold the flow entering the node, forward
        # arcs' partners the flow leaving it.
        inflow = 0.0
        outflow = 0.0
        for slot in self.arena.slots[self._index_of[(self.sink, old_tau_e)]]:
            if slot & 1:
                inflow += caps[slot]
            else:
                outflow += caps[slot + 1]
        excess = inflow - outflow
        if excess <= 0:
            return
        timeline = self._timeline[self.sink]
        position = timeline.index(old_tau_e)
        for stamp in timeline[position + 1 :]:
            self._push_hold(self._hold_into[(self.sink, stamp)], excess)

    # ------------------------------------------------------------------
    # Deletion case (Lemma 4/5)
    # ------------------------------------------------------------------
    def advance_start(self, new_tau_s: Timestamp) -> float:
        """Shrink the window to ``[new_tau_s, tau_e]`` in place.

        Returns the total flow value withdrawn from the boundary.

        Raises:
            InvalidIntervalError: unless ``tau_s < new_tau_s < tau_e``.
            GraphError: if the withdrawal Maxflow fails to absorb all
                boundary-crossing flow (would indicate a broken invariant).
        """
        if not self.tau_s < new_tau_s < self.tau_e:
            raise InvalidIntervalError(
                f"advance_start needs tau_s < {new_tau_s} < tau_e "
                f"(have [{self.tau_s}, {self.tau_e}])"
            )
        self._inject_timestamp(new_tau_s)
        crossings = self._boundary_crossings(new_tau_s)
        total_crossing = sum(flow for _, flow in crossings)

        virtual_index: int | None = None
        if total_crossing > _WITHDRAW_TOLERANCE:
            virtual_index = self._add_node(("__virtual__", self.tau_s, new_tau_s))
            for boundary_index, flow in crossings:
                self._add_edge(boundary_index, virtual_index, flow)

        # Retire the prefix *before* withdrawing so withdrawal paths stay in
        # the surviving suffix (see module docstring).
        self._retire_prefix(new_tau_s)

        withdrawn = 0.0
        if virtual_index is not None:
            run = arena_maxflow(self.arena, self.sink_index, virtual_index)
            withdrawn = run.value
            if abs(withdrawn - total_crossing) > _WITHDRAW_TOLERANCE * max(
                1.0, total_crossing
            ):
                raise GraphError(
                    f"withdrawal incomplete: absorbed {withdrawn} of "
                    f"{total_crossing} boundary-crossing flow"
                )
            self._retire(virtual_index)

        self.tau_s = new_tau_s
        self._ensure_timeline_node(self.source, new_tau_s)
        self._sync_endpoints()
        if self._skeleton is None:
            self._rebuild_arrival()
        # A skeleton needs no arrival rebuild: later extensions slice the
        # per-start index of the *new* tau_s, a from-scratch temporal
        # reachability.  That can be a superset of the live-graph labels
        # rebuilt above (edges enabled only through dropped sink-out edges
        # reappear), but such edges have no inflow in the materialised
        # graph and cannot change any Maxflow value.
        return withdrawn

    # ------------------------------------------------------------------
    # Arena primitives
    # ------------------------------------------------------------------
    def _add_node(self, label: tuple) -> int:
        arena = self.arena
        index = len(arena.slots)
        arena.slots.append([])
        arena.level.append(ARENA_UNREACHED)
        arena.iters.append(0)
        self._labels.append(label)
        self._index_of[label] = index
        self._active += 1
        return index

    def _add_edge(self, tail: int, head: int, capacity: float) -> int:
        """Append edge ``tail -> head``; returns its (even) forward slot."""
        arena = self.arena
        heads = arena.heads
        slot = len(heads)
        heads += (head, tail)
        arena.caps.extend((capacity, 0.0))
        arena.rev.extend((slot + 1, slot))
        slots = arena.slots
        slots[tail].append(slot)
        slots[head].append(slot + 1)
        return slot

    def _push_hold(self, slot: int, amount: float) -> None:
        """Route ``amount > 0`` more along the hold edge at ``slot``.

        Hold edges have infinite forward residual, so only the reverse arc
        changes.
        """
        self.arena.caps[slot + 1] += amount

    def _retire(self, index: int) -> None:
        self.arena.level[index] = ARENA_RETIRED
        self._active -= 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sync_endpoints(self) -> None:
        self.source_index = self._index_of[(self.source, self.tau_s)]
        self.sink_index = self._index_of[(self.sink, self.tau_e)]

    def _include_window(self, tau_lo: Timestamp, tau_hi: Timestamp) -> None:
        """Materialise reachable edges with timestamps in [tau_lo, tau_hi]."""
        if tau_hi < tau_lo:
            return
        if self._skeleton is not None:
            # The compiled per-start index: the same included-edge list, in
            # the same order, as the reachable_edges call below — any
            # window's inclusion set is a stamp-range slice of the current
            # start's index (arrival labels only depend on earlier stamps).
            included = self._skeleton.included_between(
                self.tau_s, tau_lo, tau_hi
            )
        else:
            included = reachable_edges(
                self.temporal, self.source, tau_lo, tau_hi, arrival=self._arrival
            )
        source = self.source
        sink = self.sink
        node_at = self._ensure_timeline_node
        add_edge = self._add_edge
        source_arcs = self.source_arcs
        for u, v, tau, capacity in included:
            if u == sink or v == source:
                continue  # cannot carry s-t flow (see transform.assemble)
            slot = add_edge(node_at(u, tau), node_at(v, tau), capacity)
            if u == source:
                source_arcs.append(slot)

    def _ensure_timeline_node(self, node: NodeId, tau: Timestamp) -> int:
        """Get or create ``<node, tau>``, chaining it into the timeline.

        New stamps are appended at the end (edges arrive in timestamp order
        and the window grows rightward) or — for the source boundary after
        an :meth:`advance_start` — prepended at the front.  Interior stamps
        only ever appear through timestamp injection.
        """
        label = (node, tau)
        index = self._index_of.get(label)
        if index is not None:
            return index
        timeline = self._timeline.setdefault(node, [])
        if timeline and timeline[0] > tau:
            # Prepend: a fresh boundary node ahead of the first stamp.
            index = self._add_node(label)
            first = timeline[0]
            self._hold_into[(node, first)] = self._add_edge(
                index, self._index_of[(node, first)], _INF
            )
            timeline.insert(0, tau)
            return index
        if timeline and timeline[-1] > tau:
            raise GraphError(
                f"timeline of {node!r} only grows at its ends: cannot add "
                f"{tau} inside [{timeline[0]}, {timeline[-1]}]"
            )
        index = self._add_node(label)
        if timeline:
            self._hold_into[label] = self._add_edge(
                self._index_of[(node, timeline[-1])], index, _INF
            )
        timeline.append(tau)
        return index

    def _inject_timestamp(self, tau: Timestamp) -> None:
        """``Δ_tau``: split every hold edge spanning ``tau`` (live version).

        The split preserves both capacity (infinite) and currently routed
        flow: each half carries the original flow, realised by zeroing out
        the spanning edge and manually pushing the flow onto the halves.
        """
        caps = self.arena.caps
        index_of = self._index_of
        for node, timeline in self._timeline.items():
            position = _span_position(timeline, tau)
            if position is None:
                continue
            before = timeline[position]
            after = timeline[position + 1]
            old = self._hold_into.pop((node, after))
            routed = caps[old + 1]
            # Disable the spanning edge entirely (capacity and flow to 0).
            caps[old] = 0.0
            caps[old + 1] = 0.0

            middle = self._add_node((node, tau))
            first = self._add_edge(index_of[(node, before)], middle, _INF)
            second = self._add_edge(middle, index_of[(node, after)], _INF)
            if routed > 0:
                self._push_hold(first, routed)
                self._push_hold(second, routed)
            self._hold_into[(node, tau)] = first
            self._hold_into[(node, after)] = second
            timeline.insert(position + 1, tau)

    def _boundary_crossings(self, tau: Timestamp) -> list[tuple[int, float]]:
        """Positive flow entering ``<u, tau>`` along u's hold chain, u != s.

        After injection, all flow crossing the new start boundary does so on
        a hold edge whose head is exactly ``<u, tau>``.
        """
        caps = self.arena.caps
        crossings: list[tuple[int, float]] = []
        for node in self._timeline:
            if node == self.source:
                continue
            slot = self._hold_into.get((node, tau))
            if slot is None:
                continue
            routed = caps[slot + 1]
            if routed > _WITHDRAW_TOLERANCE:
                crossings.append((self._index_of[(node, tau)], routed))
        return crossings

    def _rebuild_arrival(self) -> None:
        """Recompute earliest arrivals from the *current* source.

        After :meth:`advance_start` the inherited arrival labels are only
        lower bounds (they stem from an earlier source), which would make
        subsequent :meth:`extend_end` calls materialise edges no longer
        reachable.  A structural BFS over the live transformed network is
        exact: ``<u, tau>`` is reachable from ``<s, tau_s>`` iff value
        could sit at ``u`` by time ``tau``.
        """
        arena = self.arena
        heads = arena.heads
        caps = arena.caps
        level = arena.level
        slots = arena.slots
        labels = self._labels
        start = self.source_index
        seen = {start}
        stack = [start]
        arrival: dict[NodeId, float] = {}
        while stack:
            index = stack.pop()
            node, tau = labels[index]
            known = arrival.get(node)
            if known is None or tau < known:
                arrival[node] = float(tau)
            for slot in slots[index]:
                if slot & 1:
                    continue  # reverse arc
                head = heads[slot]
                if level[head] == ARENA_RETIRED or head in seen:
                    continue
                # Structural presence: residual or routed flow positive
                # (injection-disabled hold edges have both at zero).
                if caps[slot] <= 0 and caps[slot + 1] <= 0:
                    continue
                seen.add(head)
                stack.append(head)
        self._arrival = arrival

    def _retire_prefix(self, new_tau_s: Timestamp) -> None:
        """Retire all ``<u, tau>`` nodes with ``tau < new_tau_s``."""
        index_of = self._index_of
        hold_into = self._hold_into
        for node, timeline in self._timeline.items():
            cut = 0
            while cut < len(timeline) and timeline[cut] < new_tau_s:
                self._retire(index_of[(node, timeline[cut])])
                hold_into.pop((node, timeline[cut]), None)
                cut += 1
            if cut:
                # The hold edge into the first surviving stamp now dangles.
                if cut < len(timeline):
                    hold_into.pop((node, timeline[cut]), None)
                del timeline[:cut]
        level = self.arena.level
        heads = self.arena.heads
        self.source_arcs = [
            slot
            for slot in self.source_arcs
            if level[heads[slot + 1]] != ARENA_RETIRED
        ]


def _span_position(timeline: list[Timestamp], tau: Timestamp) -> int | None:
    """Index i with timeline[i] < tau < timeline[i+1], or None."""
    position = bisect.bisect_left(timeline, tau)
    if position < len(timeline) and timeline[position] == tau:
        return None  # node already has this stamp
    if position == 0 or position >= len(timeline):
        return None  # tau is outside the timeline span
    return position - 1
