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
shared by every skeleton), and computes one **latest-departure column**
``ld`` for all starts at once — the dual of the earliest-arrival labels
(Wu et al., *Path Problems in Temporal Graphs*, PVLDB 2014).  ``ld[p]`` is
the latest departure from the source that still reaches edge ``p``'s tail
by the edge's stamp ``tau``: ``tau`` when the tail is the source, else the
max of ``ld`` over the tail's in-edges with stamps ``<= tau`` (a
max-propagation fixpoint inside each timestamp group carries same-instant
chains).  Edge ``p`` is included in ``N_[tau_s, tau_e]`` exactly when
``ld[p] >= tau_s`` — the same set
:func:`~repro.core.transform.reachable_edges` computes by earliest arrival.

The column is lazy and resumable: it is computed from the lowest start
asked for (the *floor*) up to the highest stamp asked for, and a lower
start resets the floor.  Edges below the floor are left out, which only
lowers ``ld`` values that already lie below the floor, so no answer for a
start ``>= floor`` changes.  The column is stored sparsely, as the
positions with a finite ``ld``: an edge whose tail no start can be at is
skipped without a Python-level step.  Each start keeps a memo of its
included edges in stamp order, extended by the one ``ld[p] >= tau_s``
comparison, so the included-edge list of *any* window ``[tau_s, tau_e]``
is a bisect-found **prefix** of that memo.  Within one timestamp the
edges come in column (``edges_in_window``) order, as in
``reachable_edges``.  The memo also records, per head node, the stamp of
the start's earliest included in-edge, which answers
:meth:`WindowSkeleton.reaches_sink` for any sink.

Neither the column nor the memos depend on the sink: included edges are
the ones some flow leaving the source can use, and a sink-out edge still
carries reachability to later edges.  One skeleton therefore serves every
sink of its source, and the planner shares it across a source's
``(source, sink)`` groups.

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
from itertools import compress

from repro.exceptions import GraphError
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork

_INF = math.inf
_NEG = -math.inf


class _StartIndex:
    """The (resumable) included-edge memo for one starting timestamp.

    ``edges[i]`` is the i-th included edge as ``(u, v, tau, capacity)``;
    ``taus[i]`` is its timestamp.  ``taus`` is non-decreasing, so the
    included set of ``[tau_s, tau_e]`` is ``edges[:bisect_right(taus,
    tau_e)]`` and an incremental extension ``(lo, hi]`` is an interior
    slice — exactly what ``reachable_edges`` would have produced, in the
    same order.  ``next_pos`` is the global array position of the first
    edge not yet filtered; ``first_in[v]`` is the stamp of the earliest
    included edge into ``v`` (absent while there is none).
    """

    __slots__ = ("edges", "taus", "next_pos", "first_in")

    def __init__(self, next_pos: int) -> None:
        self.edges: list[tuple[NodeId, NodeId, Timestamp, float]] = []
        self.taus: list[Timestamp] = []
        self.next_pos = next_pos
        self.first_in: dict[NodeId, Timestamp] = {}


class WindowSkeleton:
    """A per-source compilation of the temporal network (see module docs).

    Compile once per ``(network, source)`` pair; windows of *any*
    ``[tau_s, tau_e]``, towards any sink, can then be sliced out.  The
    skeleton holds the network's edge columns of its compile epoch and
    refuses to serve windows after the temporal network mutates (the
    epoch check), since those columns would be stale.
    """

    __slots__ = (
        "temporal",
        "source",
        "_epoch",
        "_eu",
        "_ev",
        "_etau",
        "_ecap",
        "_floor",
        "_next",
        "_pos",
        "_ld",
        "_label",
        "_start_cache",
    )

    def __init__(self, temporal: TemporalFlowNetwork, source: NodeId) -> None:
        self.temporal = temporal
        self.source = source
        # The network's shared edge columns, in edges_in_window order.
        self._epoch, self._eu, self._ev, self._etau, self._ecap = (
            temporal.edge_columns()
        )
        self._floor: float = _INF
        self._next = len(self._etau)
        self._pos: list[int] = []
        self._ld: list[Timestamp] = []
        self._label: dict[NodeId, Timestamp] = {}
        self._start_cache: dict[Timestamp, _StartIndex] = {}

    # ------------------------------------------------------------------
    # Latest-departure column
    # ------------------------------------------------------------------
    def _profile(self, tau_s: Timestamp, upto: Timestamp) -> None:
        """Compute ``ld`` through every stamp ``<= upto`` for starts ``>= tau_s``.

        The column is kept sparse: ``_pos`` lists, in column order, the
        positions from the floor's first edge up to ``_next`` whose ``ld``
        is finite, and ``_ld`` their values; every other edge there has
        ``ld = -inf``.
        ``_label[v]`` is the max ``ld`` over the in-edges of ``v`` seen so
        far (the source is a key too, so that membership in ``_label`` is
        "some start can be at this node").
        """
        etau = self._etau
        source = self.source
        if tau_s < self._floor:
            self._floor = tau_s
            self._next = bisect_left(etau, tau_s)
            self._pos = []
            self._ld = []
            self._label = {source: tau_s}
        start = self._next
        end = bisect_right(etau, upto, start)
        if start >= end:
            return
        self._next = end
        eu = self._eu
        ev = self._ev
        pos = self._pos
        ld = self._ld
        label = self._label
        label_get = label.get
        done = start
        # Edges whose tail no start can be at are skipped in C.  Membership
        # is tested lazily, so a node labelled at position p counts for
        # every position after p; the first edge found in a timestamp
        # group settles the whole group.
        span = range(start, end)
        reached = map(label.__contains__, map(eu.__getitem__, span))
        for p in compress(span, reached):
            if p < done:
                continue  # already settled with its timestamp group
            tau = etau[p]
            # Max-propagation fixpoint over the whole timestamp group: a
            # label raised at tau raises the edges leaving that node at tau.
            g = bisect_left(etau, tau, start, p)
            done = bisect_right(etau, tau, p, end)
            group = [_NEG] * (done - g)
            changed = True
            while changed:
                changed = False
                for k in range(done - g):
                    u = eu[g + k]
                    d = tau if u == source else label_get(u, _NEG)
                    if d > group[k]:
                        group[k] = d
                        changed = True
                        v = ev[g + k]
                        if d > label_get(v, _NEG):
                            label[v] = d
            for k, d in enumerate(group):
                if d > _NEG:
                    pos.append(g + k)
                    ld.append(d)

    # ------------------------------------------------------------------
    # Per-start included-edge memo
    # ------------------------------------------------------------------
    def start_index(self, tau_s: Timestamp, upto: Timestamp) -> _StartIndex:
        """The included-edge memo for flow leaving at ``tau_s``.

        Extends the memo through every edge with a stamp up to ``upto``.

        Raises:
            GraphError: when the temporal network mutated after compile
                (the snapshot arrays would serve stale windows).
        """
        if self.temporal.epoch != self._epoch:
            raise GraphError(
                "temporal network mutated after skeleton compile; "
                "build a fresh WindowSkeleton"
            )
        etau = self._etau
        index = self._start_cache.get(tau_s)
        if index is None:
            index = _StartIndex(bisect_left(etau, tau_s))
            self._start_cache[tau_s] = index
        i = index.next_pos
        if i >= len(etau) or etau[i] > upto:
            return index
        self._profile(tau_s, upto)
        hi = bisect_right(etau, upto, i)
        eu = self._eu
        ev = self._ev
        ecap = self._ecap
        pos = self._pos
        ld = self._ld
        edges = index.edges
        taus = index.taus
        first_in = index.first_in
        for k in range(bisect_left(pos, i), bisect_left(pos, hi)):
            if ld[k] >= tau_s:
                p = pos[k]
                tau = etau[p]
                v = ev[p]
                edges.append((eu[p], v, tau, ecap[p]))
                taus.append(tau)
                if v not in first_in:
                    first_in[v] = tau
        index.next_pos = hi
        return index

    # ------------------------------------------------------------------
    # Window slicing
    # ------------------------------------------------------------------
    def included_between(
        self, tau_s: Timestamp, lo: Timestamp, hi: Timestamp
    ) -> list[tuple[NodeId, NodeId, Timestamp, float]]:
        """Included edges with stamps in ``[lo, hi]`` for start ``tau_s``.

        Lists ``(u, v, tau, capacity)`` in stamp order, exactly as
        :func:`~repro.core.transform.reachable_edges` would.  Unfiltered:
        sink-out / source-in edges are present (they still carry
        reachability to later edges), and callers apply the assemble
        filter themselves.

        Raises:
            GraphError: when the temporal network mutated after compile.
        """
        if hi < lo:
            return []
        index = self.start_index(tau_s, hi)
        taus = index.taus
        return index.edges[bisect_left(taus, lo) : bisect_right(taus, hi)]

    def reaches_sink(
        self, tau_s: Timestamp, tau_e: Timestamp, sink: NodeId
    ) -> bool:
        """Whether some edge included in ``[tau_s, tau_e]`` enters ``sink``.

        When it is False the window's transformed network towards
        ``sink`` has no capacity edge into the sink, so its Maxflow is 0.

        Raises:
            GraphError: when the temporal network mutated after compile.
        """
        return self.start_index(tau_s, tau_e).first_in.get(sink, _INF) <= tau_e
