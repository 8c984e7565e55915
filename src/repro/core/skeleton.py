"""Transform compiler: compile the temporal network once, slice per window.

:func:`~repro.core.transform.build_transformed_network` rebuilds the
transformed network ``N_[tau_s, tau_e]`` from scratch for every candidate
window — node maps, ``Arc`` objects and a fresh reachability sweep per
window, ``O(d^2)`` times per query.  After PR 2 moved the Maxflow inner
loop onto flat arrays, that per-window object-graph construction dominates
BFQ wall time and a large share of BFQ+/BFQ*.

:class:`WindowSkeleton` amortises it.  Per query it snapshots the temporal
edge stream once into parallel arrays (timestamp-ordered, exactly the
order ``edges_in_window`` yields), and lazily computes one *per-start
reachability index* for each starting timestamp ``tau_s`` the query
touches: a single earliest-arrival sweep over the suffix ``[tau_s, t_max]``
that replays :func:`~repro.core.transform.reachable_edges`'s per-timestamp
fixpoint on array positions.  Because an edge's arrival label only depends
on edges with stamps ``<= tau``, the included-edge list of *any* window
``[tau_s, tau_e]`` is a bisect-found **prefix** of that start's index —
so after ``O(d)`` sweeps (one per start; the same asymptotics BFQ+ pays)
every one of the ``O(d^2)`` windows is two binary searches away.

:meth:`WindowSkeleton.materialize` then builds the window **directly as a
residual arena** (:class:`~repro.flownet.residual.ResidualArena`) — flat
``heads`` / ``caps`` / ``rev`` / ``slots`` arrays the persistent Dinic
kernel consumes natively — bypassing :class:`~repro.flownet.network.
FlowNetwork` entirely on the hot path.  The node set, hold chains and
capacity edges are constructed in one pass over the sliced positions and
match :func:`~repro.core.transform.assemble` exactly; the lazy
:meth:`SkeletonWindow.to_flow_network` escape hatch rebuilds the
byte-identical object graph on demand for certificates, the differential
oracle and debugging.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.exceptions import GraphError, InvalidIntervalError
from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.algorithms.dinic_flat_persistent import arena_maxflow
from repro.flownet.residual import ResidualArena
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork

_INF = math.inf


class _StartIndex:
    """The (resumable) reachability index for one starting timestamp.

    ``positions[i]`` is the i-th included edge's position in the skeleton's
    global edge arrays; ``taus[i]`` is its timestamp.  ``taus`` is
    non-decreasing (the fixpoint emits whole timestamp groups in order), so
    the included set of ``[tau_s, tau_e]`` is ``positions[:bisect_right(
    taus, tau_e)]`` and an incremental extension ``(lo, hi]`` is an interior
    slice — exactly what ``reachable_edges`` would have produced, in the
    same order.

    The sweep is *lazy*: ``arrival`` and ``next_pos`` carry its state, and
    the skeleton advances it only up to the highest stamp a window has
    actually asked for — so a start whose candidate endings stop early
    never pays for the rest of the horizon.
    """

    __slots__ = ("positions", "taus", "arrival", "next_pos")

    def __init__(self, source: NodeId, tau_s: Timestamp, next_pos: int) -> None:
        self.positions: list[int] = []
        self.taus: list[Timestamp] = []
        self.arrival: dict[NodeId, float] = {source: float(tau_s)}
        #: Global array position of the first unswept edge (whole timestamp
        #: groups are swept atomically, so this always sits on a boundary).
        self.next_pos = next_pos


class WindowSkeleton:
    """A per-query compilation of the temporal network (see module docs).

    Compile once per ``(network, source, sink)`` triple; windows of *any*
    ``[tau_s, tau_e]`` can then be sliced out.  The skeleton snapshots the
    edge stream at compile time and refuses to serve windows after the
    temporal network mutates (the epoch check), since its arrays would be
    stale.
    """

    __slots__ = (
        "temporal",
        "source",
        "sink",
        "_epoch",
        "_eu",
        "_ev",
        "_etau",
        "_ecap",
        "_keep",
        "_start_cache",
    )

    def __init__(
        self, temporal: TemporalFlowNetwork, source: NodeId, sink: NodeId
    ) -> None:
        self.temporal = temporal
        self.source = source
        self.sink = sink
        self._epoch = temporal.epoch
        # Parallel snapshot of every temporal edge, in edges_in_window
        # order (timestamp-major, insertion order within a timestamp) —
        # the order the reachability fixpoint depends on.
        eu: list[NodeId] = []
        ev: list[NodeId] = []
        etau: list[Timestamp] = []
        ecap: list[float] = []
        keep: list[bool] = []
        if temporal.num_timestamps:
            for edge in temporal.edges_in_window(temporal.t_min, temporal.t_max):
                eu.append(edge.u)
                ev.append(edge.v)
                etau.append(edge.tau)
                ecap.append(edge.capacity)
                # assemble() drops edges out of the sink / into the source
                # (they can never carry s-t flow); they still propagate
                # arrival labels, so they stay in the sweep below.
                keep.append(edge.u != sink and edge.v != source)
        self._eu = eu
        self._ev = ev
        self._etau = etau
        self._ecap = ecap
        self._keep = keep
        self._start_cache: dict[Timestamp, _StartIndex] = {}

    # ------------------------------------------------------------------
    # Per-start reachability index
    # ------------------------------------------------------------------
    def start_index(
        self, tau_s: Timestamp, upto: Timestamp | None = None
    ) -> _StartIndex:
        """The (memoised) included-edge index for flow leaving at ``tau_s``.

        Args:
            upto: advance the lazy sweep through every timestamp group up
                to this stamp (``None`` only fetches the index).

        Raises:
            GraphError: when the temporal network mutated after compile
                (the snapshot arrays would serve stale windows).
        """
        if self.temporal.epoch != self._epoch:
            raise GraphError(
                "temporal network mutated after skeleton compile; "
                "build a fresh WindowSkeleton"
            )
        index = self._start_cache.get(tau_s)
        if index is None:
            index = _StartIndex(
                self.source, tau_s, bisect_left(self._etau, tau_s)
            )
            self._start_cache[tau_s] = index
        if upto is not None:
            self._sweep(index, upto)
        return index

    def _sweep(self, index: _StartIndex, upto: Timestamp) -> None:
        """Advance one earliest-arrival sweep through stamps ``<= upto``.

        Replays :func:`~repro.core.transform.reachable_edges` — including
        its per-timestamp fixpoint and emission order — on array positions,
        resuming where the previous call stopped.
        """
        eu = self._eu
        ev = self._ev
        etau = self._etau
        arrival = index.arrival
        arrival_get = arrival.get
        positions = index.positions
        taus = index.taus
        i = index.next_pos
        n = len(etau)
        while i < n:
            tau = etau[i]
            if tau > upto:
                break
            j = i
            while j < n and etau[j] == tau:
                j += 1
            # Fixpoint over one timestamp group: arrivals set at tau enable
            # more edges at the same tau.
            work = range(i, j)
            progressed = True
            while progressed and work:
                progressed = False
                remaining: list[int] = []
                for p in work:
                    if arrival_get(eu[p], _INF) <= tau:
                        positions.append(p)
                        taus.append(tau)
                        v = ev[p]
                        if tau < arrival_get(v, _INF):
                            arrival[v] = float(tau)
                        progressed = True
                    else:
                        remaining.append(p)
                work = remaining
            i = j
        index.next_pos = i

    # ------------------------------------------------------------------
    # Window slicing
    # ------------------------------------------------------------------
    def included_between(
        self, tau_s: Timestamp, lo: Timestamp, hi: Timestamp
    ) -> Iterator[tuple[NodeId, NodeId, Timestamp, float]]:
        """Included edges with stamps in ``[lo, hi]`` for start ``tau_s``.

        Unfiltered (sink-out / source-in edges are present, as from
        :func:`~repro.core.transform.reachable_edges`); callers apply the
        assemble filter themselves.  This is the incremental engine's
        replacement for its per-extension ``reachable_edges`` call.
        """
        if hi < lo:
            return
        index = self.start_index(tau_s, upto=hi)
        eu = self._eu
        ev = self._ev
        ecap = self._ecap
        taus = index.taus
        start = bisect_left(taus, lo)
        stop = bisect_right(taus, hi)
        for k in range(start, stop):
            p = index.positions[k]
            yield (eu[p], ev[p], taus[k], ecap[p])

    def materialize(self, tau_s: Timestamp, tau_e: Timestamp) -> "SkeletonWindow":
        """Slice ``N_[tau_s, tau_e]`` directly into a fresh residual arena.

        One pass over the bisect-found position prefix builds the flat
        ``heads`` / ``caps`` / ``rev`` / ``slots`` arrays the persistent
        Dinic kernel runs on — no :class:`FlowNetwork`, no ``Arc`` objects,
        no per-node label dicts beyond one current-timeline-position map.

        Raises:
            InvalidIntervalError: when ``tau_e < tau_s``.
            GraphError: when the temporal network mutated after compile.
        """
        if tau_e < tau_s:
            raise InvalidIntervalError(f"window [{tau_s}, {tau_e}] is reversed")
        index = self.start_index(tau_s, upto=tau_e)
        taus = index.taus
        positions = index.positions
        stop = bisect_right(taus, tau_e)

        eu = self._eu
        ev = self._ev
        ecap = self._ecap
        keep = self._keep
        source = self.source
        sink = self.sink

        heads: list[int] = []
        caps: list[float] = []
        rev: list[int] = []
        slots: list[list[int]] = [[]]
        heads_append = heads.append
        caps_append = caps.append
        rev_append = rev.append

        # Timeline state per temporal node: the arena index and stamp of
        # its latest materialised timeline node.  The source is pre-seeded
        # at tau_s (assemble always gives it that stamp).
        cur_node: dict[NodeId, int] = {source: 0}
        cur_tau: dict[NodeId, Timestamp] = {source: tau_s}
        n_nodes = 1
        n_edges = 0
        source_arcs: list[int] = []

        def timeline_node(node: NodeId, tau: Timestamp) -> int:
            """Arena index of ``<node, tau>``, chaining hold edges."""
            nonlocal n_nodes, n_edges
            at = cur_node.get(node)
            if at is not None and cur_tau[node] == tau:
                return at
            index_new = n_nodes
            n_nodes += 1
            slots.append([])
            if at is not None:
                # Hold edge <node, prev> -> <node, tau>, capacity inf.
                k = len(heads)
                heads_append(index_new)
                caps_append(_INF)
                rev_append(k + 1)
                heads_append(at)
                caps_append(0.0)
                rev_append(k)
                slots[at].append(k)
                slots[index_new].append(k + 1)
                n_edges += 1
            cur_node[node] = index_new
            cur_tau[node] = tau
            return index_new

        for k in range(stop):
            p = positions[k]
            if not keep[p]:
                continue
            u = eu[p]
            v = ev[p]
            tau = taus[k]
            tail = timeline_node(u, tau)
            head = timeline_node(v, tau)
            slot = len(heads)
            heads_append(head)
            caps_append(ecap[p])
            rev_append(slot + 1)
            heads_append(tail)
            caps_append(0.0)
            rev_append(slot)
            slots[tail].append(slot)
            slots[head].append(slot + 1)
            n_edges += 1
            if u == source:
                source_arcs.append(slot)

        # assemble() always gives the sink the stamp tau_e; timeline_node
        # reuses the existing node when the last sink stamp is already tau_e.
        sink_index = timeline_node(sink, tau_e)

        arena = ResidualArena(heads, caps, rev, slots)
        return SkeletonWindow(
            skeleton=self,
            tau_s=tau_s,
            tau_e=tau_e,
            arena=arena,
            source_index=0,
            sink_index=sink_index,
            num_nodes=n_nodes,
            num_edges=n_edges,
            source_arc_slots=source_arcs,
        )


class SkeletonWindow:
    """One candidate window, materialised as a residual arena.

    The arena is private to this window (fresh zero-flow residual state);
    :meth:`maxflow` runs the persistent flat Dinic kernel on it directly.
    :meth:`to_flow_network` lazily rebuilds the byte-identical
    :class:`~repro.core.transform.TransformedNetwork` object graph for
    certificates and debugging.
    """

    __slots__ = (
        "skeleton",
        "tau_s",
        "tau_e",
        "arena",
        "source_index",
        "sink_index",
        "num_nodes",
        "num_edges",
        "source_arc_slots",
    )

    def __init__(
        self,
        *,
        skeleton: WindowSkeleton,
        tau_s: Timestamp,
        tau_e: Timestamp,
        arena: ResidualArena,
        source_index: int,
        sink_index: int,
        num_nodes: int,
        num_edges: int,
        source_arc_slots: list[int],
    ) -> None:
        self.skeleton = skeleton
        self.tau_s = tau_s
        self.tau_e = tau_e
        self.arena = arena
        self.source_index = source_index
        self.sink_index = sink_index
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.source_arc_slots = source_arc_slots

    def maxflow(self, *, value_bound: float | None = None) -> MaxflowRun:
        """Run the persistent arena Dinic on this window's arena."""
        return arena_maxflow(
            self.arena,
            self.source_index,
            self.sink_index,
            value_bound=value_bound,
        )

    def flow_value(self) -> float:
        """``|f|`` — flow routed on capacity edges leaving the source timeline."""
        caps = self.arena.caps
        rev = self.arena.rev
        return sum(caps[rev[slot]] for slot in self.source_arc_slots)

    def to_flow_network(self):
        """The byte-identical object-graph transform (escape hatch).

        Delegates to :func:`~repro.core.transform.assemble` over this
        window's included-edge slice, so the result equals
        :func:`~repro.core.transform.build_transformed_network` exactly —
        node ordering, edge handles and all.  Routed flow is *not*
        replayed; the object graph starts at zero flow.
        """
        from repro.core.transform import assemble

        skeleton = self.skeleton
        included = list(
            skeleton.included_between(self.tau_s, self.tau_s, self.tau_e)
        )
        return assemble(
            skeleton.temporal,
            skeleton.source,
            skeleton.sink,
            self.tau_s,
            self.tau_e,
            included,
        )
