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

Flow-value accounting uses the invariant measure ``|f| =`` flow leaving the
*active* source timeline on capacity edges, which survives both moves.
"""

from __future__ import annotations

import math

from repro.exceptions import GraphError, InvalidIntervalError
from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.algorithms.dinic_flat_persistent import dinic_flat_persistent
from repro.flownet.network import EdgeKind, EdgeRef, FlowNetwork
from repro.core.skeleton import WindowSkeleton
from repro.core.transform import TransformedNetwork, reachable_edges
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork

#: Tolerance when asserting complete withdrawal of boundary-crossing flow.
_WITHDRAW_TOLERANCE = 1e-6


class IncrementalTransformedNetwork:
    """A transformed network that can grow at the end and shrink at the start.

    Every Maxflow run is the persistent arena Dinic
    (:func:`~repro.flownet.algorithms.dinic_flat_persistent.
    dinic_flat_persistent`) on the network's attached residual arena,
    built lazily on the first run and maintained incrementally afterwards.

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
        self.network = FlowNetwork()
        # Sorted active timeline stamps per temporal node.
        self._timeline: dict[NodeId, list[Timestamp]] = {}
        # Hold-edge handle per (node, index into timeline): the edge from
        # timeline[i] to timeline[i+1] keyed by its *head* stamp.
        self._hold_into: dict[tuple[NodeId, Timestamp], EdgeRef] = {}
        self.source_capacity_arcs: list[EdgeRef] = []
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
        """``|V'|`` — active transformed nodes."""
        return self.network.num_active_nodes

    def as_transformed(self) -> TransformedNetwork:
        """A read-compatible :class:`TransformedNetwork` view of the state."""
        return TransformedNetwork(
            flow_network=self.network,
            source=self.source,
            sink=self.sink,
            tau_s=self.tau_s,
            tau_e=self.tau_e,
            source_index=self.source_index,
            sink_index=self.sink_index,
            source_capacity_arcs=self.source_capacity_arcs,
        )

    def flow_value(self) -> float:
        """``|f|`` for the current residual state."""
        total = 0.0
        network = self.network
        for ref in self.source_capacity_arcs:
            if network.is_retired(ref.tail):
                continue
            arc = network.forward_arc(ref)
            if network.is_retired(arc.head):
                continue
            total += network.flow_on(ref)
        return total

    def run_maxflow(self, *, value_bound: float | None = None) -> MaxflowRun:
        """Resume Dinic on the current residual state (Lemma 3 / Lemma 4).

        ``value_bound`` optionally caps how much this run can possibly add
        (Observation 2: sink capacity inserted since the last computed
        Maxflow).  The kernel uses it to certify maximality without its
        final failed BFS.
        """
        return dinic_flat_persistent(
            self.network, self.source_index, self.sink_index,
            value_bound=value_bound,
        )

    def clone(self) -> "IncrementalTransformedNetwork":
        """Deep copy of the state (BFQ*'s mid-sweep snapshot).

        The copy is *compacted*: nodes retired by earlier
        :meth:`advance_start` calls are dropped and every stored edge
        handle is remapped, so successive BFQ* generations do not inherit
        dead prefixes (this mirrors the paper's operator semantics, where
        the subtracted prefix simply no longer exists in the new network).
        """
        other = IncrementalTransformedNetwork.__new__(IncrementalTransformedNetwork)
        other._skeleton = self._skeleton  # compiled index; safely shared
        other.temporal = self.temporal
        other.source = self.source
        other.sink = self.sink
        other.tau_s = self.tau_s
        other.tau_e = self.tau_e
        other._arrival = dict(self._arrival)
        other.network, ref_map = self.network.compacted_clone()
        other._timeline = {
            node: [tau for tau in tl if other.network.has_node((node, tau))]
            for node, tl in self._timeline.items()
        }
        other._timeline = {node: tl for node, tl in other._timeline.items() if tl}
        other._hold_into = {}
        for key, ref in self._hold_into.items():
            mapped = ref_map.get((ref.tail, ref.index))
            if mapped is not None:
                other._hold_into[key] = mapped
        other.source_capacity_arcs = [
            ref_map[(ref.tail, ref.index)]
            for ref in self.source_capacity_arcs
            if (ref.tail, ref.index) in ref_map
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
        old_index = self.network.index_of((self.sink, old_tau_e))
        excess = self.network.in_flow(old_index) - self.network.out_flow(old_index)
        if excess <= 0:
            return
        timeline = self._timeline[self.sink]
        position = timeline.index(old_tau_e)
        for stamp in timeline[position + 1 :]:
            self.network.push_on(self._hold_into[(self.sink, stamp)], excess)

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
            virtual_label = ("__virtual__", self.tau_s, new_tau_s)
            virtual_index = self.network.add_node(virtual_label)
            for boundary_index, flow in crossings:
                self.network.add_edge(
                    boundary_index,
                    virtual_index,
                    flow,
                    kind=EdgeKind.VIRTUAL,
                    meta="withdrawal",
                )

        # Retire the prefix *before* withdrawing so withdrawal paths stay in
        # the surviving suffix (see module docstring).
        self._retire_prefix(new_tau_s)

        withdrawn = 0.0
        if virtual_index is not None:
            run = dinic_flat_persistent(
                self.network, self.sink_index, virtual_index
            )
            withdrawn = run.value
            if abs(withdrawn - total_crossing) > _WITHDRAW_TOLERANCE * max(
                1.0, total_crossing
            ):
                raise GraphError(
                    f"withdrawal incomplete: absorbed {withdrawn} of "
                    f"{total_crossing} boundary-crossing flow"
                )
            self.network.retire_node(virtual_index)

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
    # Internals
    # ------------------------------------------------------------------
    def _sync_endpoints(self) -> None:
        self.source_index = self.network.index_of((self.source, self.tau_s))
        self.sink_index = self.network.index_of((self.sink, self.tau_e))

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
        for u, v, tau, capacity in included:
            if u == self.sink or v == self.source:
                continue  # cannot carry s-t flow (see transform.assemble)
            tail = self._ensure_timeline_node(u, tau)
            head = self._ensure_timeline_node(v, tau)
            ref = self.network.add_edge(
                tail, head, capacity, kind=EdgeKind.CAPACITY, meta=(u, v, tau)
            )
            if u == self.source:
                self.source_capacity_arcs.append(ref)

    def _ensure_timeline_node(self, node: NodeId, tau: Timestamp) -> int:
        """Get or create ``<node, tau>``, chaining it into the timeline.

        New stamps are appended at the end (edges arrive in timestamp order
        and the window grows rightward) or — for the source boundary after
        an :meth:`advance_start` — prepended at the front.  Interior stamps
        only ever appear through timestamp injection.
        """
        label = (node, tau)
        if self.network.has_node(label):
            return self.network.index_of(label)
        timeline = self._timeline.setdefault(node, [])
        if timeline and timeline[0] > tau:
            # Prepend: a fresh boundary node ahead of the first stamp.
            index = self.network.add_node(label)
            first = timeline[0]
            ref = self.network.add_edge_labeled(
                label, (node, first), math.inf, kind=EdgeKind.HOLD, meta=node
            )
            self._hold_into[(node, first)] = ref
            timeline.insert(0, tau)
            return index
        if timeline and timeline[-1] > tau:
            raise GraphError(
                f"timeline of {node!r} only grows at its ends: cannot add "
                f"{tau} inside [{timeline[0]}, {timeline[-1]}]"
            )
        index = self.network.add_node(label)
        if timeline:
            previous = timeline[-1]
            ref = self.network.add_edge_labeled(
                (node, previous), label, math.inf, kind=EdgeKind.HOLD, meta=node
            )
            self._hold_into[(node, tau)] = ref
        timeline.append(tau)
        return index

    def _inject_timestamp(self, tau: Timestamp) -> None:
        """``Δ_tau``: split every hold edge spanning ``tau`` (live version).

        The split preserves both capacity (infinite) and currently routed
        flow: each half carries the original flow, realised by zeroing out
        the spanning edge and manually pushing the flow onto the halves.
        """
        for node, timeline in self._timeline.items():
            position = _span_position(timeline, tau)
            if position is None:
                continue
            before = timeline[position]
            after = timeline[position + 1]
            old_ref = self._hold_into.pop((node, after))
            routed = self.network.flow_on(old_ref)
            # Disable the spanning edge entirely (capacity and flow to 0).
            self.network.disable_edge(old_ref)

            middle_label = (node, tau)
            self.network.add_node(middle_label)
            first = self.network.add_edge_labeled(
                (node, before), middle_label, math.inf, kind=EdgeKind.HOLD, meta=node
            )
            second = self.network.add_edge_labeled(
                middle_label, (node, after), math.inf, kind=EdgeKind.HOLD, meta=node
            )
            if routed > 0:
                self.network.push_on(first, routed)
                self.network.push_on(second, routed)
            self._hold_into[(node, tau)] = first
            self._hold_into[(node, after)] = second
            timeline.insert(position + 1, tau)

    def _boundary_crossings(self, tau: Timestamp) -> list[tuple[int, float]]:
        """Positive flow entering ``<u, tau>`` along u's hold chain, u != s.

        After injection, all flow crossing the new start boundary does so on
        a hold edge whose head is exactly ``<u, tau>``.
        """
        crossings: list[tuple[int, float]] = []
        for node, timeline in self._timeline.items():
            if node == self.source:
                continue
            ref = self._hold_into.get((node, tau))
            if ref is None:
                continue
            routed = self.network.flow_on(ref)
            if routed > _WITHDRAW_TOLERANCE:
                crossings.append((self.network.index_of((node, tau)), routed))
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
        network = self.network
        adj = network._adj  # noqa: SLF001 - hot path
        retired = network._retired  # noqa: SLF001
        start = self.source_index
        seen = {start}
        stack = [start]
        arrival: dict[NodeId, float] = {}
        while stack:
            index = stack.pop()
            node, tau = network.label_of(index)
            known = arrival.get(node)
            if known is None or tau < known:
                arrival[node] = float(tau)
            for arc in adj[index]:
                if not arc.forward or retired[arc.head] or arc.head in seen:
                    continue
                # Structural presence: residual or routed flow positive
                # (injection-disabled hold edges have both at zero).
                if arc.cap <= 0 and adj[arc.head][arc.rev].cap <= 0:
                    continue
                seen.add(arc.head)
                stack.append(arc.head)
        self._arrival = arrival

    def _retire_prefix(self, new_tau_s: Timestamp) -> None:
        """Retire all ``<u, tau>`` nodes with ``tau < new_tau_s``."""
        for node, timeline in self._timeline.items():
            cut = 0
            while cut < len(timeline) and timeline[cut] < new_tau_s:
                self.network.retire_node(
                    self.network.index_of((node, timeline[cut]))
                )
                self._hold_into.pop((node, timeline[cut]), None)
                cut += 1
            if cut:
                # The hold edge into the first surviving stamp now dangles.
                if cut < len(timeline):
                    self._hold_into.pop((node, timeline[cut]), None)
                del timeline[:cut]
        self.source_capacity_arcs = [
            ref
            for ref in self.source_capacity_arcs
            if not self.network.is_retired(ref.tail)
        ]


def _span_position(timeline: list[Timestamp], tau: Timestamp) -> int | None:
    """Index i with timeline[i] < tau < timeline[i+1], or None."""
    import bisect

    position = bisect.bisect_left(timeline, tau)
    if position < len(timeline) and timeline[position] == tau:
        return None  # node already has this stamp
    if position == 0 or position >= len(timeline):
        return None  # tau is outside the timeline span
    return position - 1
