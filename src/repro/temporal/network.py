"""The temporal flow network data structure.

:class:`TemporalFlowNetwork` is the central input type of the library.  It
is an immutable (append-only until frozen) in-memory index over a multiset of
temporal edges, mirroring the paper's ``N_T = (V, E_T, T, C_T)``:

* ``V`` — the node set;
* ``E_T`` — directed temporal edges ``(u, v, tau)``;
* ``T`` — the (sorted) set of timestamps appearing on edges;
* ``C_T`` — the capacity map.  Parallel interactions (same ``(u, v, tau)``)
  are merged by summing capacities, which is the standard formatting used by
  the paper's datasets.

Beyond raw storage, the class maintains the per-node timestamp indexes used
throughout the algorithms:

* ``TiStamp_out(u)`` — timestamps of u's out-going edges;
* ``TiStamp_in(u)`` — timestamps of u's in-coming edges;
* ``Ti(u)``          — timestamps of u's edges that may be part of s-t flows
  (for a source this is ``TiStamp_out``, for a sink ``TiStamp_in``, and the
  union for everything else) — Table 1 of the paper.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import InvalidTimestampError, ReproError, UnknownNodeError
from repro.temporal.edge import NodeId, TemporalEdge, Timestamp, validate_capacity


class TemporalFlowNetwork:
    """An in-memory temporal flow network with per-node timestamp indexes.

    Instances are built either through :class:`repro.temporal.builder.
    TemporalFlowNetworkBuilder` (preferred), from an iterable of
    :class:`TemporalEdge`, or from raw ``(u, v, tau, capacity)`` tuples via
    :meth:`from_tuples`.
    """

    def __init__(self, edges: Iterable[TemporalEdge] = ()) -> None:
        # Merged capacities keyed by (u, v, tau).
        self._capacity: dict[tuple[NodeId, NodeId, Timestamp], float] = {}
        # Sorted unique timestamps with out-going / in-coming edges, per node.
        self._out_stamps: dict[NodeId, list[Timestamp]] = defaultdict(list)
        self._in_stamps: dict[NodeId, list[Timestamp]] = defaultdict(list)
        # Edges grouped by timestamp for windowed traversal:
        #   tau -> list of (u, v) pairs with an edge at tau.
        self._edges_at: dict[Timestamp, list[tuple[NodeId, NodeId]]] = defaultdict(list)
        # Out-adjacency grouped per node: u -> tau -> list of v.
        self._out_adj: dict[NodeId, dict[Timestamp, list[NodeId]]] = defaultdict(dict)
        self._nodes: set[NodeId] = set()
        self._timestamps: list[Timestamp] = []
        # Per-node in-capacity prefix sums aligned with _in_stamps[v]:
        #   _in_prefix[v][i] = total capacity into v at _in_stamps[v][:i].
        self._in_prefix: dict[NodeId, list[float]] = {}
        self._stamps_dirty = False
        # Monotone mutation counter.  Bumped at exactly the points that set
        # _stamps_dirty (the hooks the residual arena's dirty journal also
        # rides on), so observers — the service result cache above all —
        # can fingerprint a network state as (id, epoch) and invalidate on
        # append without scanning edges.
        self._epoch = 0
        # Epoch-keyed caches, rebuilt into new containers whenever the epoch
        # moves (a published one is never mutated): the edge columns of
        # edge_columns() and the per-node in-degree counts.
        self._columns: tuple | None = None
        self._in_deg: tuple[int, dict[NodeId, int]] | None = None
        for edge in edges:
            self.add_edge(edge)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls, tuples: Iterable[tuple[NodeId, NodeId, Timestamp, float]]
    ) -> "TemporalFlowNetwork":
        """Build a network from raw ``(u, v, tau, capacity)`` tuples."""
        network = cls()
        for u, v, tau, capacity in tuples:
            network.add_edge(TemporalEdge(u, v, tau, capacity))
        return network

    def add_edge(self, edge: TemporalEdge) -> None:
        """Insert one temporal edge, merging capacity with any duplicate."""
        key = edge.key()
        if key in self._capacity:
            self._capacity[key] += edge.capacity
            # Structure is unchanged but the in-capacity prefix sums are
            # now stale; _refresh_indexes rebuilds them.
            self._stamps_dirty = True
        else:
            self._capacity[key] = edge.capacity
            self._edges_at[edge.tau].append((edge.u, edge.v))
            self._out_adj[edge.u].setdefault(edge.tau, []).append(edge.v)
            self._out_stamps[edge.u].append(edge.tau)
            self._in_stamps[edge.v].append(edge.tau)
            self._stamps_dirty = True
        self._epoch += 1
        self._nodes.add(edge.u)
        self._nodes.add(edge.v)

    def add_node(self, node: NodeId) -> None:
        """Register an isolated node (rarely needed; edges register nodes)."""
        if node not in self._nodes:
            self._epoch += 1
        self._nodes.add(node)

    @property
    def epoch(self) -> int:
        """Monotone mutation counter (0 for an empty, untouched network).

        Every :meth:`add_edge` (including capacity merges) and every new
        :meth:`add_node` bumps it, so two reads of ``epoch`` bracketing any
        sequence of operations detect whether the network changed in
        between.  Cached delta-BFlow answers keyed by
        ``(epoch, s, t, delta, algorithm)`` therefore can never be served
        stale: a streaming append moves the epoch and all earlier entries
        miss.
        """
        return self._epoch

    def adopt_epoch(self, epoch: int) -> None:
        """Fast-forward the mutation counter to ``epoch`` (snapshot restore).

        A network rebuilt from a snapshot's *merged* edges performs fewer
        :meth:`add_edge` calls than the append history the snapshot
        summarizes (capacity merges collapse), so its raw counter would
        undercount.  Adopting the snapshot's recorded epoch keeps the
        cluster invariant — "the epoch is a pure function of the applied
        history" — across restore + log-suffix replay.

        Raises:
            ReproError: when ``epoch`` would move the counter backwards
                (that would let a cached answer outlive a mutation).
        """
        if epoch < self._epoch:
            raise ReproError(
                f"cannot move the epoch backwards ({self._epoch} -> {epoch})"
            )
        self._epoch = int(epoch)

    def _refresh_indexes(self) -> None:
        if not self._stamps_dirty:
            return
        for per_node in (self._out_stamps, self._in_stamps):
            for stamps in per_node.values():
                stamps[:] = sorted(set(stamps))
        self._timestamps = sorted(self._edges_at)
        self._rebuild_in_prefix()
        self._stamps_dirty = False

    def _rebuild_in_prefix(self) -> None:
        """Recompute the per-node in-capacity prefix sums.

        One pass over the capacity map groups in-capacity per (node, tau);
        the prefix arrays then let :meth:`sink_capacity_in_window` answer
        any window with two bisects instead of scanning every edge at every
        in-stamp (the BFQ+/BFQ* inner-loop hot path).
        """
        per_node: dict[NodeId, dict[Timestamp, float]] = defaultdict(dict)
        for (_, v, tau), capacity in self._capacity.items():
            stamps = per_node[v]
            stamps[tau] = stamps.get(tau, 0.0) + capacity
        prefix: dict[NodeId, list[float]] = {}
        for v, per_tau in per_node.items():
            sums = [0.0]
            for tau in self._in_stamps[v]:
                sums.append(sums[-1] + per_tau[tau])
            prefix[v] = sums
        self._in_prefix = prefix

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset[NodeId]:
        """The node set ``V``."""
        return frozenset(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Number of nodes |V|."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of distinct temporal edges ``|E_T|`` (after merging)."""
        return len(self._capacity)

    @property
    def timestamps(self) -> Sequence[Timestamp]:
        """Sorted distinct timestamps ``T`` carrying at least one edge."""
        self._refresh_indexes()
        return self._timestamps

    @property
    def num_timestamps(self) -> int:
        """``|T|`` — the number of distinct timestamps."""
        return len(self.timestamps)

    @property
    def t_min(self) -> Timestamp:
        """Smallest timestamp in ``T``."""
        stamps = self.timestamps
        if not stamps:
            raise InvalidTimestampError(None, "network has no edges")
        return stamps[0]

    @property
    def t_max(self) -> Timestamp:
        """Largest timestamp in ``T``."""
        stamps = self.timestamps
        if not stamps:
            raise InvalidTimestampError(None, "network has no edges")
        return stamps[-1]

    @property
    def time_span(self) -> int:
        """``t_max - t_min``, or 0 when the network has no edges."""
        stamps = self.timestamps
        return stamps[-1] - stamps[0] if stamps else 0

    def has_node(self, node: NodeId) -> bool:
        """Whether the node exists in the network."""
        return node in self._nodes

    def capacity(self, u: NodeId, v: NodeId, tau: Timestamp) -> float:
        """``C_T(u, v, tau)`` — the merged capacity, or 0 if absent."""
        return self._capacity.get((u, v, tau), 0.0)

    def edges(self) -> Iterator[TemporalEdge]:
        """Iterate all distinct temporal edges (merged capacities)."""
        for (u, v, tau), capacity in self._capacity.items():
            yield TemporalEdge(u, v, tau, capacity)

    def edges_in_window(
        self, tau_lo: Timestamp, tau_hi: Timestamp
    ) -> Iterator[TemporalEdge]:
        """Iterate edges with timestamps in the inclusive window.

        Iteration is ordered by timestamp, which the network transformation
        relies on for deterministic construction.
        """
        self._refresh_indexes()
        lo = bisect.bisect_left(self._timestamps, tau_lo)
        hi = bisect.bisect_right(self._timestamps, tau_hi)
        for tau in self._timestamps[lo:hi]:
            for u, v in self._edges_at[tau]:
                yield TemporalEdge(u, v, tau, self._capacity[(u, v, tau)])

    def edge_columns(
        self,
    ) -> tuple[int, list[NodeId], list[NodeId], list[Timestamp], list[float]]:
        """Every edge as ``(epoch, us, vs, taus, caps)`` parallel lists.

        The lists follow :meth:`edges_in_window` order (timestamp-major,
        insertion order within a timestamp) and are built once per epoch,
        so every :class:`~repro.core.skeleton.WindowSkeleton` of one network
        state shares them.  Callers must not mutate them.
        """
        columns = self._columns
        if columns is None or columns[0] != self._epoch:
            epoch = self._epoch
            self._refresh_indexes()
            us: list[NodeId] = []
            vs: list[NodeId] = []
            taus: list[Timestamp] = []
            caps: list[float] = []
            for tau in self._timestamps:
                for u, v in self._edges_at[tau]:
                    us.append(u)
                    vs.append(v)
                    taus.append(tau)
                    caps.append(self._capacity[(u, v, tau)])
            columns = self._columns = (epoch, us, vs, taus, caps)
        return columns

    def out_neighbours(self, u: NodeId, tau: Timestamp) -> Sequence[NodeId]:
        """Nodes ``v`` with an edge ``(u, v, tau)``."""
        return self._out_adj.get(u, {}).get(tau, [])

    def out_timestamps_of(self, u: NodeId) -> Mapping[Timestamp, list[NodeId]]:
        """Out-adjacency of ``u`` grouped by timestamp."""
        return self._out_adj.get(u, {})

    # ------------------------------------------------------------------
    # Timestamp indexes (Table 1 notation)
    # ------------------------------------------------------------------
    def tistamp_out(self, u: NodeId) -> Sequence[Timestamp]:
        """``TiStamp_out(u)`` — sorted timestamps of u's out-going edges."""
        self._require_node(u)
        self._refresh_indexes()
        return self._out_stamps.get(u, [])

    def tistamp_in(self, u: NodeId) -> Sequence[Timestamp]:
        """``TiStamp_in(u)`` — sorted timestamps of u's in-coming edges."""
        self._require_node(u)
        self._refresh_indexes()
        return self._in_stamps.get(u, [])

    def ti(self, u: NodeId, source: NodeId, sink: NodeId) -> Sequence[Timestamp]:
        """``Ti(u)`` w.r.t. a query's source and sink (Table 1).

        ``Ti(s) = TiStamp_out(s)``, ``Ti(t) = TiStamp_in(t)`` and the sorted
        union of both otherwise.
        """
        if u == source:
            return self.tistamp_out(u)
        if u == sink:
            return self.tistamp_in(u)
        self._require_node(u)
        self._refresh_indexes()
        return sorted({*self._out_stamps.get(u, ()), *self._in_stamps.get(u, ())})

    def ti_in_window(
        self,
        u: NodeId,
        source: NodeId,
        sink: NodeId,
        tau_s: Timestamp,
        tau_e: Timestamp,
    ) -> list[Timestamp]:
        """``Ti_[tau_s, tau_e](u)`` — Ti(u) ∪ {tau_s, tau_e} clipped to the window.

        Per the timestamp-inline operator (Section 4.1, step 2), the window
        boundaries are always included for the source and the sink so that
        the transformed network has a well-defined super-source
        ``<s, tau_s>`` and super-sink ``<t, tau_e>``.
        """
        stamps = self.ti(u, source, sink)
        lo = bisect.bisect_left(stamps, tau_s)
        hi = bisect.bisect_right(stamps, tau_e)
        clipped = list(stamps[lo:hi])
        if u == source and (not clipped or clipped[0] != tau_s):
            clipped.insert(0, tau_s)
        if u == sink and (not clipped or clipped[-1] != tau_e):
            clipped.append(tau_e)
        return clipped

    # ------------------------------------------------------------------
    # Degree statistics
    # ------------------------------------------------------------------
    def degree(self, u: NodeId) -> int:
        """Total number of distinct temporal edges incident to ``u``."""
        self._require_node(u)
        out_deg = sum(len(vs) for vs in self._out_adj.get(u, {}).values())
        return out_deg + self._in_degree_cache().get(u, 0)

    def _in_degree_cache(self) -> dict[NodeId, int]:
        cached = self._in_deg
        if cached is None or cached[0] != self._epoch:
            counts: dict[NodeId, int] = defaultdict(int)
            for (_, v, __) in self._capacity:
                counts[v] += 1
            cached = self._in_deg = (self._epoch, dict(counts))
        return cached[1]

    def max_degree(self) -> int:
        """``d_max`` — the maximum total degree over all nodes."""
        return max(map(self.degree, self._nodes), default=0)

    def query_degree(self, source: NodeId, sink: NodeId) -> int:
        """``d = max(|Ti(s)|, |Ti(t)|)`` — the candidate-interval driver."""
        return max(len(self.ti(source, source, sink)), len(self.ti(sink, source, sink)))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def _require_node(self, node: NodeId) -> None:
        if node not in self._nodes:
            raise UnknownNodeError(node)

    def total_capacity(self) -> float:
        """Sum of all edge capacities (used for sanity bounds in tests)."""
        return sum(self._capacity.values())

    def sink_capacity_in_window(
        self, sink: NodeId, tau_lo: Timestamp, tau_hi: Timestamp
    ) -> float:
        """Total capacity entering ``sink`` during ``[tau_lo, tau_hi]``.

        This is the quantity used by the Observation-2 pruning rule:
        ``sum_{tau in [tau_lo, tau_hi]} sum_u C_T(u, t, tau)``.

        Answered from the per-node in-capacity prefix sums maintained by
        :meth:`_refresh_indexes` — two bisects instead of a scan over every
        edge at every in-stamp.
        """
        self._require_node(sink)
        self._refresh_indexes()
        stamps = self._in_stamps.get(sink, [])
        sums = self._in_prefix.get(sink)
        if not stamps or sums is None:
            return 0.0
        lo = bisect.bisect_left(stamps, tau_lo)
        hi = bisect.bisect_right(stamps, tau_hi)
        return sums[hi] - sums[lo]

    def _sink_capacity_in_window_scan(
        self, sink: NodeId, tau_lo: Timestamp, tau_hi: Timestamp
    ) -> float:
        """Reference O(edges-at-tau) implementation, kept for equality tests."""
        self._require_node(sink)
        self._refresh_indexes()
        stamps = self._in_stamps.get(sink, [])
        lo = bisect.bisect_left(stamps, tau_lo)
        hi = bisect.bisect_right(stamps, tau_hi)
        total = 0.0
        for tau in stamps[lo:hi]:
            for u, v in self._edges_at[tau]:
                if v == sink:
                    total += self._capacity[(u, v, tau)]
        return total

    def __getstate__(self) -> dict:
        # The edge columns are rebuilt on demand; never ship them.
        return {**self.__dict__, "_columns": None}

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TemporalFlowNetwork(|V|={self.num_nodes}, |E_T|={self.num_edges}, "
            f"|T|={self.num_timestamps})"
        )
