"""Resumable Dinic on a *persistent* flat residual arena.

``dinic_flat`` already showed that the CSR layout itself is not the win on
CPython — its per-run O(|E|) flatten/write-back is pure overhead.  This
kernel removes that overhead structurally: it runs on a
:class:`~repro.flownet.residual.ResidualArena` that its owner keeps alive
across runs, so a resumed run (the BFQ+/BFQ* hot path — dozens of runs
over one growing and shrinking network) converts nothing at all.  The
arena is the engine's only representation of the transformed network: the
incremental state (:mod:`repro.core.incremental`) builds every window into
one — a BFQ window is a fresh state — and mutates it in place.  There is
no object graph to keep in step — no journal, no write-back; certificates
and the differential oracle read an on-demand object-graph export.

On top of the persistence, the kernel folds three constant-factor wins the
object-graph walker cannot have:

* **retirement folded into levels** — retired nodes permanently carry the
  :data:`~repro.flownet.residual.ARENA_RETIRED` sentinel, so the hot loops
  need no per-arc ``retired[]`` lookup;
* **bidirectional levels** — each phase's level search grows a backward
  search from the sink and a forward one from the source, one whole layer
  of the cheaper frontier at a time, and stops where they meet.  Nodes
  the forward side alone reached get ``level = d - dist``: exact on every
  shortest path, a dead end the DFS retires (touching no capacity)
  everywhere else, so the augmenting paths are exactly those of a
  one-sided BFS from the sink.  Shortest paths on transformed temporal
  networks are long hold chains, so meeting in the middle scans a
  fraction of the arcs; a frontier running dry ends the run, after
  searching only the smaller side;
* **O(labelled) scratch resets** — ``level``/``iters`` are persistent
  arrays cleared only where the previous search labelled them, and the
  ``isinf`` guard disappears because ``inf - finite == inf``;
* **paired slots** — an edge's two arcs sit in slots ``k`` and ``k ^ 1``,
  so the partner of an arc is one XOR away and the arena stores no
  partner array.

**Measured honestly** (CPython 3.11): on the EXP-3 incremental-maxflow
workload (BENCH_PR2.json: btc2011 / ctu13 / prosper, BFQ+ and BFQ*) the
persistent arena cuts aggregate maxflow time from 4.45 s to 2.08 s — a
2.1x over the object walker.  The remaining tax was the *transform*, not
the maxflow: BFQ still built a dict-backed ``FlowNetwork`` per candidate
window before this kernel saw an arc.  The EXP-4 transform-compiler
workload (BENCH_PR4.json: same datasets, BFQ end-to-end) removes that too
— skeleton-sliced arenas beat the per-window object-graph transform by
4.1x aggregate (per-dataset 2.8-4.2x), with BFQ+/BFQ* no slower on any
dataset (1.05-1.87x).

The kernel proper is :func:`arena_maxflow`; every engine run is stamped
``kernel="persistent"`` so per-kernel profiles keep one row.
:func:`dinic_flat_persistent` is the same kernel for a classical
:class:`~repro.flownet.network.FlowNetwork` (the registry's
``dinic-flat-persistent`` solver, a Table-4 column): it flattens the
network into a one-shot arena — each edge's two arcs as a slot pair, every
node's arcs in their adjacency order, so runs augment as on the network
itself — runs, and writes the residual capacities back.

The computed flow *value* and the certified min cut match
:func:`~repro.flownet.algorithms.dinic.dinic` exactly; the residual flow
*assignment* may differ (both are maximum flows — the object walker's
source-rooted level graph admits different blocking flows), which the
differential oracle accounts for by comparing values and certificates,
not raw residuals.
"""

from __future__ import annotations

import math

from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.network import FLOW_EPSILON, FlowNetwork
from repro.flownet.residual import ARENA_RETIRED, ARENA_UNREACHED, ResidualArena

#: Name stamped on every run of this kernel (``MaxflowRun.kernel``).
KERNEL = "persistent"


def dinic_flat_persistent(
    network: FlowNetwork, source: int, sink: int
) -> MaxflowRun:
    """Run the arena kernel on a :class:`FlowNetwork`: flatten, run, write back.

    Resumable like every in-place solver: the routed flow round-trips
    through the network's ``Arc`` capacities, so a later call (of this or
    any other mutating solver) finds only the missing augmenting paths.
    """
    adj = network._adj  # noqa: SLF001 - one-shot flatten
    heads: list[int] = []
    caps: list[float] = []
    slots = [[0] * len(row) for row in adj]
    arcs = []  # in slot order
    for tail, row in enumerate(adj):
        for position, arc in enumerate(row):
            if not arc.forward:
                continue
            partner = adj[arc.head][arc.rev]
            slot = len(heads)
            heads += (arc.head, tail)
            caps += (arc.cap, partner.cap)
            slots[tail][position] = slot
            slots[arc.head][arc.rev] = slot + 1
            arcs += (arc, partner)
    arena = ResidualArena(heads, caps, slots)
    level = arena.level
    for i, retired in enumerate(network._retired):  # noqa: SLF001
        if retired:
            level[i] = ARENA_RETIRED
    run = arena_maxflow(arena, source, sink)
    for arc, cap in zip(arcs, arena.caps):
        arc.cap = cap
    return run


def arena_maxflow(
    arena: ResidualArena,
    source: int,
    sink: int,
    *,
    value_bound: float | None = None,
) -> MaxflowRun:
    """The kernel proper: resumable Dinic over an arena's flat arrays.

    ``value_bound`` is an optional *proof of maximality*: a caller-supplied
    upper bound on how much this run can add (for the insertion sweep, the
    Observation-2 sink capacity added since the last computed Maxflow —
    place every new timeline node on the source side of the old min cut and
    the only new crossing arcs are the sink-window arcs).  Once the run's
    gain reaches the bound, no augmenting path can remain, so the kernel
    returns without the otherwise-mandatory final failed level search.  A
    bound of zero certifies the resumed state as already maximal in O(1).
    """
    if source == sink:
        return MaxflowRun(value=0.0, kernel=KERNEL)

    heads = arena.heads
    caps = arena.caps
    slots = arena.slots
    level = arena.level
    iters = arena.iters
    stale = arena.stale_labels

    total = 0.0
    n_paths = 0
    phases = 0
    # Hot-loop locals: global/attribute lookups cost a dict probe per use on
    # CPython, and the loops below execute millions of steps per workload.
    eps = FLOW_EPSILON
    stale_append = stale.append
    row_of = slots.__getitem__

    if level[source] == ARENA_RETIRED or level[sink] == ARENA_RETIRED:
        return MaxflowRun(value=0.0, kernel=KERNEL)

    bounded = value_bound is not None
    if bounded and value_bound <= eps:
        return MaxflowRun(value=0.0, kernel=KERNEL)

    while True:
        # ------------------------------------------------------------------
        # Bidirectional level search.  Each step expands one whole layer of
        # the cheaper frontier (fewer arcs to scan): backward from the sink
        # into ``level`` (residual distance to the sink), or forward from
        # the source into ``dist``.  After the first meeting node ``met``
        # the layers searched so far sum to the shortest distance ``d``,
        # and every node on a shortest path is labelled by at least one
        # side.  A dry frontier proves that no augmenting path is left.
        # ------------------------------------------------------------------
        for i in stale:
            if level[i] >= 0:
                level[i] = ARENA_UNREACHED
        del stale[:]
        level[sink] = 0
        stale_append(sink)
        dist = {source: 0}
        back = [sink]
        fore = [source]
        back_depth = fore_depth = 0
        back_arcs = len(slots[sink])
        fore_arcs = len(slots[source])
        met = -1
        while back and fore:
            if back_arcs <= fore_arcs:
                back_depth += 1
                layer: list[int] = []
                layer_append = layer.append
                for node in back:
                    for k in slots[node]:
                        # The arc *into* ``node`` from ``heads[k]`` is the
                        # partner slot ``k ^ 1``.  Test the level first:
                        # most scanned arcs lead to nodes already labelled.
                        other = heads[k]
                        if level[other] == ARENA_UNREACHED and caps[k ^ 1] > eps:
                            level[other] = back_depth
                            stale_append(other)
                            if other in dist:
                                met = other
                                break
                            layer_append(other)
                    if met >= 0:
                        break
                back = layer
                back_arcs = sum(map(len, map(row_of, layer)))
            else:
                fore_depth += 1
                layer = []
                layer_append = layer.append
                for node in fore:
                    for k in slots[node]:
                        if caps[k] > eps:
                            other = heads[k]
                            mark = level[other]
                            if mark >= 0:
                                met = other
                                dist[other] = fore_depth
                                break
                            if mark == ARENA_UNREACHED and other not in dist:
                                dist[other] = fore_depth
                                layer_append(other)
                    if met >= 0:
                        break
                fore = layer
                fore_arcs = sum(map(len, map(row_of, layer)))
            if met >= 0:
                break
        if met < 0:
            break
        # A forward-only node at ``dist < d`` gets level ``d - dist``: exact
        # on a shortest path, and a dead end the blocking-flow DFS retires
        # otherwise (a level-descending walk from it to the sink would be
        # a residual path shorter than its distance to the sink).
        shortest = dist[met] + level[met]
        for node, depth in dist.items():
            if depth < shortest and level[node] < 0:
                level[node] = shortest - depth
                stale_append(node)
        phases += 1
        for i in stale:
            iters[i] = 0

        remaining = (value_bound - total) if bounded else math.inf
        gained, phase_paths, maximal_by_bound = run_blocking_flow(
            heads, caps, slots, level, iters, source, sink, remaining,
        )
        total += gained
        n_paths += phase_paths
        if maximal_by_bound:
            break

    return MaxflowRun(
        value=total, augmenting_paths=n_paths, phases=phases, kernel=KERNEL
    )


def run_blocking_flow(
    heads: list[int],
    caps: list[float],
    slots: list[list[int]],
    level: list[int],
    iters: list[int],
    source: int,
    sink: int,
    remaining_bound: float,
) -> tuple[float, int, bool]:
    """One blocking-flow phase over an admissible level graph.

    The levels come from the bidirectional level search; the DFS below
    only needs ``level[head] == level[node] - 1`` admissibility.  Mutates
    ``caps`` / ``iters`` / ``level`` in place and returns ``(gained, paths,
    hit_bound)`` where ``hit_bound`` reports that the accumulated gain
    reached ``remaining_bound`` (pass ``math.inf`` for unbounded runs) and
    the caller may skip the final failed level search.

    Iterative advance/retreat DFS over slot ids.  Unlike the object
    walker, the stack survives an augmentation: the walk retreats only to
    the first *saturated* arc of the path, not to the source.  Equivalent
    by the current-arc argument — a restart from the source re-follows
    ``iters`` over still-positive arcs and reproduces exactly the retained
    prefix — but it skips the O(path length) re-walk per path, which
    dominates on temporal transformed networks (hold chains make paths
    hundreds of nodes long).
    """
    eps = FLOW_EPSILON
    # Pre-push capacities via C-level map(); paths run hundreds of arcs
    # long on transformed networks, so every per-arc interpreter step in
    # this section is paid dearly.
    caps_item = caps.__getitem__
    partner = (1).__xor__
    total = 0.0
    n_paths = 0
    path_nodes = [source]
    path_slots: list[int] = []
    while True:
        node = path_nodes[-1]
        if node == sink:
            path_caps = list(map(caps_item, path_slots))
            bottleneck = min(path_caps)
            if math.isinf(bottleneck):
                raise ArithmeticError(
                    "augmenting path with infinite bottleneck"
                )
            for k in path_slots:
                caps[k] -= bottleneck  # inf - finite stays inf
            reverse_slots = list(map(partner, path_slots))
            for k in reverse_slots:
                caps[k] += bottleneck
            total += bottleneck
            n_paths += 1
            if total >= remaining_bound - eps:
                # The gain hit the caller's capacity bound: the flow is
                # maximal, so skip the rest of this phase *and* the
                # final failed level search.
                return total, n_paths, True
            # Retreat to the first saturated arc (pre-push capacity
            # within eps of the bottleneck); the prefix before it is
            # exactly what a source restart would re-walk.
            cut = 0
            limit = bottleneck + eps
            while path_caps[cut] > limit:
                cut += 1
            del path_slots[cut:]
            del path_nodes[cut + 1 :]
            continue
        slot_row = slots[node]
        position = iters[node]
        end = len(slot_row)
        next_level = level[node] - 1
        advanced = False
        while position < end:
            k = slot_row[position]
            if caps[k] > eps and level[heads[k]] == next_level:
                iters[node] = position
                path_slots.append(k)
                path_nodes.append(heads[k])
                advanced = True
                break
            position += 1
        if advanced:
            continue
        iters[node] = end
        level[node] = ARENA_UNREACHED
        if node == source:
            return total, n_paths, False  # level graph exhausted
        path_nodes.pop()
        last = path_slots.pop()
        parent = path_nodes[-1]
        # Force the parent to move past the dead arc.
        parent_position = iters[parent]
        if slots[parent][parent_position] == last:
            iters[parent] = parent_position + 1
