"""Transform compiler: compile the temporal network once, slice per window.

:func:`~repro.core.transform.build_transformed_network` rebuilds the
transformed network ``N_[tau_s, tau_e]`` from scratch for every candidate
window — node maps, ``Arc`` objects and a fresh reachability sweep per
window, ``O(d^2)`` times per query.  After PR 2 moved the Maxflow inner
loop onto flat arrays, that per-window object-graph construction dominates
BFQ wall time and a large share of BFQ+/BFQ*.

:class:`WindowSkeleton` amortises it.  It reads the network's
epoch-keyed edge columns (``TemporalFlowNetwork.edge_columns``: parallel
arrays in ``edges_in_window`` order, built once per network state and
shared by every skeleton), and lazily computes one *per-start
reachability index* for each starting timestamp ``tau_s`` the query
touches: a single earliest-arrival sweep over the suffix ``[tau_s, t_max]``
that replays :func:`~repro.core.transform.reachable_edges`'s per-timestamp
fixpoint on array positions.  Because an edge's arrival label only depends
on edges with stamps ``<= tau``, the included-edge list of *any* window
``[tau_s, tau_e]`` is a bisect-found **prefix** of that start's index —
so after ``O(d)`` sweeps (one per start; the same asymptotics BFQ+ pays)
every one of the ``O(d^2)`` windows is two binary searches away.

The skeleton only answers *which* edges a window includes.  The one arena
builder, :class:`~repro.core.incremental.IncrementalTransformedNetwork`,
turns a slice into the flat residual arena the persistent Dinic kernel
runs on: a BFQ window is a fresh state built with the skeleton, and
BFQ+/BFQ* extend one state slice by slice.  The arena has the same node
set, edge set and Maxflow value as :func:`~repro.core.transform.assemble`
over the same slice, but not the same node order (the builder numbers
nodes as edges arrive, ``assemble`` groups them by temporal node).  Where a
byte-identical object graph is needed — BFQ with a classical solver — the
caller hands :meth:`WindowSkeleton.included_between` to ``assemble``
directly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from repro.exceptions import GraphError
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork

_INF = math.inf


class _StartIndex:
    """The (resumable) reachability index for one starting timestamp.

    ``edges[i]`` is the i-th included edge as ``(u, v, tau, capacity)``;
    ``taus[i]`` is its timestamp.  ``taus`` is non-decreasing (the fixpoint
    emits whole timestamp groups in order), so the included set of
    ``[tau_s, tau_e]`` is ``edges[:bisect_right(taus, tau_e)]`` and an
    incremental extension ``(lo, hi]`` is an interior slice — exactly what
    ``reachable_edges`` would have produced, in the same order.

    The sweep is *lazy*: ``arrival`` and ``next_pos`` carry its state, and
    the skeleton advances it only up to the highest stamp a window has
    actually asked for — so a start whose candidate endings stop early
    never pays for the rest of the horizon.
    """

    __slots__ = ("edges", "taus", "arrival", "next_pos")

    def __init__(self, source: NodeId, tau_s: Timestamp, next_pos: int) -> None:
        self.edges: list[tuple[NodeId, NodeId, Timestamp, float]] = []
        self.taus: list[Timestamp] = []
        self.arrival: dict[NodeId, float] = {source: float(tau_s)}
        #: Global array position of the first unswept edge (whole timestamp
        #: groups are swept atomically, so this always sits on a boundary).
        self.next_pos = next_pos


class WindowSkeleton:
    """A per-query compilation of the temporal network (see module docs).

    Compile once per ``(network, source, sink)`` triple; windows of *any*
    ``[tau_s, tau_e]`` can then be sliced out.  The skeleton holds the
    network's edge columns of its compile epoch and refuses to serve
    windows after the temporal network mutates (the epoch check), since
    those columns would be stale.
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
        "_start_cache",
    )

    def __init__(
        self, temporal: TemporalFlowNetwork, source: NodeId, sink: NodeId
    ) -> None:
        self.temporal = temporal
        self.source = source
        self.sink = sink
        # The network's shared edge columns, in edges_in_window order —
        # the order the reachability fixpoint depends on.
        self._epoch, self._eu, self._ev, self._etau, self._ecap = (
            temporal.edge_columns()
        )
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
        ecap = self._ecap
        arrival = index.arrival
        arrival_get = arrival.get
        edges = index.edges
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
                    u = eu[p]
                    if arrival_get(u, _INF) <= tau:
                        v = ev[p]
                        edges.append((u, v, tau, ecap[p]))
                        taus.append(tau)
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
    ) -> list[tuple[NodeId, NodeId, Timestamp, float]]:
        """Included edges with stamps in ``[lo, hi]`` for start ``tau_s``.

        Lists ``(u, v, tau, capacity)`` in stamp order, exactly as
        :func:`~repro.core.transform.reachable_edges` would.  Unfiltered:
        sink-out / source-in edges are present (they still propagate
        arrival labels in the sweep), and callers apply the assemble
        filter themselves.

        Raises:
            GraphError: when the temporal network mutated after compile.
        """
        if hi < lo:
            return []
        index = self.start_index(tau_s, upto=hi)
        taus = index.taus
        return index.edges[bisect_left(taus, lo) : bisect_right(taus, hi)]
