"""Incrementally maintained transformed networks (Section 5).

:class:`IncrementalTransformedNetwork` is the engine room of all three
algorithms.  It maintains a live transformed network together with the
residual state of the Maxflow found so far, and supports the two
structural moves the paper's incremental lemmas describe:

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

Because Lemma 3 grows ``N_[tau_s, tau_e]`` only by insertions, BFQ's
independent window is simply a fresh state: the constructor's first
extension.  BFQ, the planner and the BFQ+ corner case build their windows
that way, so this module holds the engine's one arena builder.

The state *is* its residual arena (:class:`~repro.flownet.residual.
ResidualArena`): the flat ``heads`` / ``caps`` / ``slots`` / ``level``
arrays the persistent Dinic kernel runs on.  Each edge is a forward arc in
an even slot ``k`` and its reverse in ``k ^ 1``, and a node's slots are
listed in insertion order.  Every move above writes those arrays directly;
there is no second representation to keep in step.  The state's own
bookkeeping is integer state on the arena's node indices: each temporal
node's timeline (its active arena nodes in stamp order) and latest node,
and per arena node its owner, stamp and the slot of the hold edge into
it.  :meth:`to_flow_network` exports the state, routed flow
included, as the object-graph :class:`~repro.core.transform.
TransformedNetwork` for certificates and debugging.

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
    ``skeleton`` (one per query, or one per source of a planner call;
    it serves every sink of its source) every extension is a
    binary-searched slice of the skeleton's included edges for the state's
    start (read off its latest-departure column).  With
    ``skeleton=None`` each extension runs
    :func:`~repro.core.transform.reachable_edges` against the live temporal
    network, which is what a network that keeps growing after the state is
    built needs (a skeleton is a frozen snapshot).

    Raises:
        InvalidIntervalError: unless ``tau_s < tau_e``.
        GraphError: when ``skeleton`` was compiled for another network or
            another source.
    """

    __slots__ = (
        "_skeleton",
        "temporal",
        "source",
        "sink",
        "tau_s",
        "tau_e",
        "_arrival",
        "arena",
        "_owner",
        "_stamps",
        "_hold",
        "_active",
        "_timelines",
        "_last",
        "source_arcs",
        "source_index",
        "sink_index",
    )

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
        if skeleton is not None and (
            skeleton.temporal is not temporal or skeleton.source != source
        ):
            raise GraphError(
                "skeleton was compiled for another network or source: "
                f"{skeleton.source!r} vs {source!r}"
            )
        self._skeleton = skeleton
        self.temporal = temporal
        self.source = source
        self.sink = sink
        self.tau_s = tau_s
        self.tau_e = tau_e
        # Earliest-arrival labels from the *original* source timestamp.
        # After advance_start they are only lower bounds for the current
        # source, so later extensions materialise a superset of the edges
        # reachable from it.  That is sound: an edge reachable only from
        # the retired prefix has no inflow in the materialised graph and
        # cannot change any Maxflow value.
        self._arrival: dict[NodeId, float] = {}
        # Order matters: the arena starts with the source boundary node
        # <s, tau_s> (its event stamps are >= tau_s, so the timeline appends
        # monotonically); the window's edges follow, and the sink boundary
        # node comes last (its event stamps are <= tau_e).
        self.arena = ResidualArena([], [], [[]])
        # Per arena node: its temporal node and stamp (a withdrawal node
        # has its whole label as owner and stamp None), and the forward
        # slot of the hold edge into it (-1 for none).  Retired nodes keep
        # their entries.
        self._owner: list = [source]
        self._stamps: list[Timestamp | None] = [tau_s]
        self._hold: list[int] = [-1]
        self._active = 1
        # Per temporal node: its active arena nodes in stamp order, and the
        # index of its latest one (absent once all are retired).
        self._timelines: dict[NodeId, list[int]] = {source: [0]}
        self._last: dict[NodeId, int] = {source: 0}
        # Forward slots of every capacity edge leaving the source timeline.
        self.source_arcs: list[int] = []
        self.source_index = 0
        self.sink_index = self._include_window(tau_s, tau_e)

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
        labels = [
            owner if stamp is None else (owner, stamp)
            for owner, stamp in zip(self._owner, self._stamps)
        ]
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
        kept = [index for index, mark in enumerate(level) if mark != ARENA_RETIRED]
        for new_index, index in enumerate(kept):
            node_map[index] = new_index
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
        other.arena = ResidualArena(new_heads, new_caps, new_slots)
        other._owner = [self._owner[index] for index in kept]
        other._stamps = [self._stamps[index] for index in kept]
        # A live node's hold edge starts at a live node (retirement resets
        # the one dangling hold), so its slot survives the compaction.
        hold = self._hold
        other._hold = [
            -1 if hold[index] < 0 else slot_map[hold[index]] for index in kept
        ]
        other._active = len(kept)
        other._timelines = {
            node: [node_map[index] for index in timeline]
            for node, timeline in self._timelines.items()
            if timeline
        }
        other._last = {node: node_map[index] for node, index in self._last.items()}
        other.source_arcs = [
            slot_map[slot] for slot in self.source_arcs if slot_map[slot] >= 0
        ]
        other.source_index = node_map[self.source_index]
        other.sink_index = node_map[self.sink_index]
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
        old_sink = self.sink_index
        # New edges live strictly after the old end (an edge exactly at the
        # old end was already included).
        self.sink_index = self._include_window(self.tau_e + 1, new_tau_e)
        self.tau_e = new_tau_e
        self._re_terminate_sink_flow(old_sink)

    def _re_terminate_sink_flow(self, old_sink: int) -> None:
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
        for slot in self.arena.slots[old_sink]:
            if slot & 1:
                inflow += caps[slot]
            else:
                outflow += caps[slot + 1]
        excess = inflow - outflow
        if excess <= 0:
            return
        timeline = self._timelines[self.sink]
        hold = self._hold
        for index in timeline[timeline.index(old_sink) + 1 :]:
            self._push_hold(hold[index], excess)

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
            virtual_index = self._add_node(
                ("__virtual__", self.tau_s, new_tau_s), None
            )
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
        self.source_index = self._source_boundary(new_tau_s)
        # The arrival labels are not rebuilt (see ``_arrival``); a skeleton
        # slices its included edges for the *new* tau_s instead.
        return withdrawn

    # ------------------------------------------------------------------
    # Arena primitives
    # ------------------------------------------------------------------
    def _add_node(self, owner: NodeId | tuple, stamp: Timestamp | None) -> int:
        arena = self.arena
        index = len(arena.slots)
        arena.slots.append([])
        arena.level.append(ARENA_UNREACHED)
        arena.iters.append(0)
        self._owner.append(owner)
        self._stamps.append(stamp)
        self._hold.append(-1)
        self._active += 1
        return index

    def _add_edge(self, tail: int, head: int, capacity: float) -> int:
        """Append edge ``tail -> head``; returns its (even) forward slot."""
        arena = self.arena
        heads = arena.heads
        slot = len(heads)
        heads += (head, tail)
        arena.caps.extend((capacity, 0.0))
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

    def _node_at(self, node: NodeId, tau: Timestamp) -> int | None:
        """Arena index of the active ``<node, tau>``, or None."""
        timeline = self._timelines.get(node, ())
        position = bisect.bisect_left(timeline, tau, key=self._stamps.__getitem__)
        if position < len(timeline) and self._stamps[timeline[position]] == tau:
            return timeline[position]
        return None

    # ------------------------------------------------------------------
    # The builder
    # ------------------------------------------------------------------
    def _include_window(self, tau_lo: Timestamp, tau_hi: Timestamp) -> int:
        """Append the reachable edges with stamps in [tau_lo, tau_hi].

        Edges arrive in stamp order and every stamp lies past the existing
        timelines' ends, so each endpoint is either its node's latest
        timeline node or a new one appended behind it, chained by an
        infinite hold edge.  Edges out of the sink or into the source are
        skipped: they cannot carry s-t flow (see ``transform.assemble``).
        The sink boundary ``<t, tau_hi>`` comes last; returns its index.
        """
        if self._skeleton is not None:
            # The skeleton's included edges for the current start: the same
            # list, in the same order, as the reachable_edges call below —
            # any window's inclusion set is a stamp-range slice of it
            # (reachability only depends on earlier stamps).
            included = self._skeleton.included_between(
                self.tau_s, tau_lo, tau_hi
            )
        else:
            included = reachable_edges(
                self.temporal, self.source, tau_lo, tau_hi, arrival=self._arrival
            )
        # Hot loop: every lookup is a local, and the endpoint code is
        # written out twice rather than called (a call per endpoint costs
        # about as much as the rest of the loop body).
        arena = self.arena
        heads = arena.heads
        caps = arena.caps
        slots = arena.slots
        owner = self._owner
        stamps = self._stamps
        hold = self._hold
        timelines = self._timelines
        last = self._last
        source_arcs = self.source_arcs
        source = self.source
        sink = self.sink
        first_new = len(slots)
        slot = len(heads)  # the next free slot
        for u, v, tau, capacity in included:
            if u == sink or v == source:
                continue
            previous = last.get(u)
            if previous is not None and stamps[previous] == tau:
                tail = previous
            else:
                tail = len(slots)
                if previous is None:
                    slots.append([])
                    hold.append(-1)
                    timelines[u] = [tail]
                else:
                    heads.append(tail)
                    heads.append(previous)
                    caps.append(_INF)
                    caps.append(0.0)
                    slots[previous].append(slot)
                    slots.append([slot + 1])
                    hold.append(slot)
                    timelines[u].append(tail)
                    slot += 2
                owner.append(u)
                stamps.append(tau)
                last[u] = tail
            previous = last.get(v)
            if previous is not None and stamps[previous] == tau:
                head = previous
            else:
                head = len(slots)
                if previous is None:
                    slots.append([])
                    hold.append(-1)
                    timelines[v] = [head]
                else:
                    heads.append(head)
                    heads.append(previous)
                    caps.append(_INF)
                    caps.append(0.0)
                    slots[previous].append(slot)
                    slots.append([slot + 1])
                    hold.append(slot)
                    timelines[v].append(head)
                    slot += 2
                owner.append(v)
                stamps.append(tau)
                last[v] = head
            heads.append(head)
            heads.append(tail)
            caps.append(capacity)
            caps.append(0.0)
            slots[tail].append(slot)
            slots[head].append(slot + 1)
            if u == source:
                source_arcs.append(slot)
            slot += 2
        added = len(slots) - first_new
        arena.level += [ARENA_UNREACHED] * added
        arena.iters += [0] * added
        self._active += added
        # The sink boundary <t, tau_hi> closes the window.
        previous = last.get(sink)
        if previous is not None and stamps[previous] == tau_hi:
            return previous
        return self._append_node(sink, tau_hi)

    def _append_node(self, node: NodeId, tau: Timestamp) -> int:
        """Append ``<node, tau>`` behind the node's latest timeline node."""
        index = self._add_node(node, tau)
        previous = self._last.get(node)
        if previous is None:
            self._timelines[node] = [index]
        else:
            self._hold[index] = self._add_edge(previous, index, _INF)
            self._timelines[node].append(index)
        self._last[node] = index
        return index

    def _source_boundary(self, tau: Timestamp) -> int:
        """Get or create ``<s, tau>`` at the front of the source's timeline.

        After :meth:`_retire_prefix` every surviving source stamp is
        ``>= tau``: the first is ``tau`` itself, or a fresh node is
        prepended (chained by a hold edge into the old first).
        """
        timeline = self._timelines[self.source]
        if not timeline:
            return self._append_node(self.source, tau)
        first = timeline[0]
        if self._stamps[first] == tau:
            return first
        index = self._add_node(self.source, tau)
        self._hold[first] = self._add_edge(index, first, _INF)
        timeline.insert(0, index)
        return index

    # ------------------------------------------------------------------
    # Internals of the deletion case
    # ------------------------------------------------------------------
    def _inject_timestamp(self, tau: Timestamp) -> None:
        """``Δ_tau``: split every hold edge spanning ``tau`` (live version).

        The split preserves both capacity (infinite) and currently routed
        flow: each half carries the original flow, realised by zeroing out
        the spanning edge and manually pushing the flow onto the halves.
        """
        caps = self.arena.caps
        hold = self._hold
        stamp = self._stamps.__getitem__
        for node, timeline in self._timelines.items():
            position = _span_position(timeline, tau, key=stamp)
            if position is None:
                continue
            before = timeline[position]
            after = timeline[position + 1]
            old = hold[after]
            routed = caps[old + 1]
            # Disable the spanning edge entirely (capacity and flow to 0).
            caps[old] = 0.0
            caps[old + 1] = 0.0

            middle = self._add_node(node, tau)
            first = self._add_edge(before, middle, _INF)
            second = self._add_edge(middle, after, _INF)
            if routed > 0:
                self._push_hold(first, routed)
                self._push_hold(second, routed)
            hold[middle] = first
            hold[after] = second
            timeline.insert(position + 1, middle)

    def _boundary_crossings(self, tau: Timestamp) -> list[tuple[int, float]]:
        """Positive flow entering ``<u, tau>`` along u's hold chain, u != s.

        After injection, all flow crossing the new start boundary does so on
        a hold edge whose head is exactly ``<u, tau>``.
        """
        caps = self.arena.caps
        hold = self._hold
        crossings: list[tuple[int, float]] = []
        for node in self._timelines:
            if node == self.source:
                continue
            index = self._node_at(node, tau)
            if index is None or hold[index] < 0:
                continue
            routed = caps[hold[index] + 1]
            if routed > _WITHDRAW_TOLERANCE:
                crossings.append((index, routed))
        return crossings

    def _retire_prefix(self, new_tau_s: Timestamp) -> None:
        """Retire all ``<u, tau>`` nodes with ``tau < new_tau_s``."""
        stamps = self._stamps
        hold = self._hold
        for node, timeline in self._timelines.items():
            cut = 0
            while cut < len(timeline) and stamps[timeline[cut]] < new_tau_s:
                self._retire(timeline[cut])
                cut += 1
            if cut:
                if cut < len(timeline):
                    # The hold edge into the first surviving node dangles.
                    hold[timeline[cut]] = -1
                else:
                    del self._last[node]
                del timeline[:cut]
        level = self.arena.level
        heads = self.arena.heads
        self.source_arcs = [
            slot
            for slot in self.source_arcs
            if level[heads[slot + 1]] != ARENA_RETIRED
        ]


def _span_position(timeline: list, tau: Timestamp, key=None) -> int | None:
    """Index i with timeline[i] < tau < timeline[i+1], or None.

    ``key`` maps an entry to its stamp, as in :func:`bisect.bisect_left`.
    """
    position = bisect.bisect_left(timeline, tau, key=key)
    if position == 0 or position >= len(timeline):
        return None  # tau is outside the timeline span
    at = timeline[position]
    if (at if key is None else key(at)) == tau:
        return None  # node already has this stamp
    return position - 1
