"""Resumable Dinic on a *persistent* flat residual arena.

``dinic_flat`` already showed that the CSR layout itself is not the win on
CPython — its per-run O(|E|) flatten/write-back is pure overhead.  This
kernel removes that overhead structurally: the flat arrays live in a
:class:`~repro.flownet.residual.ResidualArena` attached to the network and
maintained *incrementally* through the network's mutation hooks, so a
resumed run (the BFQ+/BFQ* hot path — dozens of runs over one growing and
shrinking network) touches no per-run conversion at all.  After a run,
only the arcs actually saturated or relaxed are written back to the object
graph, keeping both views byte-equivalent for ``flow_value()``,
``certify_maxflow`` and the differential oracle.

The core loop is exposed as :func:`arena_maxflow`, which runs on *any*
:class:`ResidualArena` — attached to a network or **detached**: the
transform compiler (:mod:`repro.core.skeleton`) materialises candidate
windows straight into detached arenas with no object graph behind them,
and the kernel's write-back simply no-ops (``arena.arcs is None``).

On top of the persistence, the kernel folds three constant-factor wins the
object-graph walker cannot have:

* **retirement folded into levels** — retired nodes permanently carry the
  :data:`~repro.flownet.residual.ARENA_RETIRED` sentinel, so the hot loops
  need no per-arc ``retired[]`` lookup;
* **sink-rooted levels** — the phase BFS runs *backwards from the sink*
  and stops the moment the source is labelled, so every labelled node has
  an admissible arc chain to the sink and the blocking-flow DFS only
  dead-ends on arcs the phase itself saturated (source-rooted levels send
  the DFS into the whole source-reachable set, which on transformed
  temporal networks is mostly dead ends);
* **O(labelled) scratch resets** — ``level``/``iters`` are persistent
  arrays cleared only where the previous BFS dirtied them, and the
  ``isinf`` guard disappears because ``inf - finite == inf``.

**Measured honestly** (CPython 3.11): on the EXP-3 incremental-maxflow
workload (BENCH_PR2.json: btc2011 / ctu13 / prosper, BFQ+ and BFQ*) the
persistent arena cuts aggregate maxflow time from 4.45 s to 2.08 s — a
2.1x over the object walker.  The remaining tax was the *transform*, not
the maxflow: BFQ still built a dict-backed ``FlowNetwork`` per candidate
window before this kernel saw an arc.  The EXP-4 transform-compiler
workload (BENCH_PR4.json: same datasets, BFQ end-to-end) removes that too
— skeleton-sliced detached arenas beat the per-window object-graph
transform by 4.1x aggregate (per-dataset 2.8-4.2x), with BFQ+/BFQ* no
slower on any dataset (1.05-1.87x).

It is the engine's only maxflow kernel: BFQ+/BFQ* states enter it through
:func:`dinic_flat_persistent` (attached arena) and BFQ's compiled windows
through :func:`arena_maxflow` (detached arena).  Every engine run is
stamped ``kernel="persistent"`` so per-kernel profiles keep one row.

The computed flow *value*, the certified min cut, and the arena/object
byte-equivalence all match :func:`~repro.flownet.algorithms.dinic.dinic`
exactly; the residual flow *assignment* may differ (both are maximum
flows — sink-rooted and source-rooted level graphs admit different
blocking flows), which the differential oracle accounts for by comparing
values and certificates, not raw residuals.
"""

from __future__ import annotations

import math

from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.network import FLOW_EPSILON, FlowNetwork
from repro.flownet.residual import ARENA_RETIRED, ARENA_UNREACHED, ResidualArena

#: Name stamped on every run of this kernel (``MaxflowRun.kernel``).
KERNEL = "persistent"


def dinic_flat_persistent(
    network: FlowNetwork,
    source: int,
    sink: int,
    *,
    value_bound: float | None = None,
) -> MaxflowRun:
    """Resume Dinic on the network's persistent residual arena.

    The first call builds and attaches the arena (one O(|V| + |E|) sweep);
    every later call reuses it, provided all intervening mutations went
    through the :class:`~repro.flownet.network.FlowNetwork` API (the
    in-place object-graph solvers detach the arena defensively, forcing a
    rebuild here rather than running on stale arrays).

    ``value_bound`` is an optional *proof of maximality*: a caller-supplied
    upper bound on how much this run can add (for the insertion sweep, the
    Observation-2 sink capacity added since the last computed Maxflow —
    place every new timeline node on the source side of the old min cut and
    the only new crossing arcs are the sink-window arcs).  Once the run's
    gain reaches the bound, no augmenting path can remain, so the kernel
    returns without the otherwise-mandatory final failed BFS — the single
    most expensive sweep of a resumed run.  A bound of zero certifies the
    resumed state as already maximal in O(1).
    """
    if source == sink:
        return MaxflowRun(value=0.0, kernel=KERNEL)
    arena = network.arena
    if arena is None:
        arena = ResidualArena(network)
        network.attach_arena(arena)
    else:
        arena.sync(network)  # replay the structural journal in one batch
    return arena_maxflow(arena, source, sink, value_bound=value_bound)


def arena_maxflow(
    arena: ResidualArena,
    source: int,
    sink: int,
    *,
    value_bound: float | None = None,
) -> MaxflowRun:
    """The kernel proper: resumable Dinic over an arena's flat arrays.

    Works identically on attached arenas (entered via
    :func:`dinic_flat_persistent`, which syncs the journal first) and on
    detached arenas built by the transform compiler — the only difference
    is the final write-back, which is skipped when there are no ``Arc``
    objects to mirror (``arena.arcs is None``).
    """
    if source == sink:
        return MaxflowRun(value=0.0, kernel=KERNEL)

    heads = arena.heads
    caps = arena.caps
    rev = arena.rev
    slots = arena.slots
    level = arena.level
    iters = arena.iters
    stale = arena.stale_labels

    total = 0.0
    n_paths = 0
    phases = 0
    touched: list[int] = []
    # Hot-loop locals: global/attribute lookups cost a dict probe per use on
    # CPython, and the loops below execute millions of steps per workload.
    eps = FLOW_EPSILON
    stale_append = stale.append

    if level[source] == ARENA_RETIRED or level[sink] == ARENA_RETIRED:
        return MaxflowRun(value=0.0, kernel=KERNEL)

    # Min-cut certificate fast path: the previous run towards this sink
    # left a closed sink-side cut that no mutation has pierced since, and
    # the source is outside it — no augmenting path can exist, skip the
    # BFS.
    if arena.cut_closed and arena.cut_sink == sink and level[source] < 0:
        return MaxflowRun(value=0.0, kernel=KERNEL)

    bounded = value_bound is not None
    if bounded and value_bound <= eps:
        return MaxflowRun(value=0.0, kernel=KERNEL)

    maximal_by_bound = False
    while True:
        # ------------------------------------------------------------------
        # BFS levels *backwards from the sink* (``level[i]`` = residual
        # distance to the sink), clearing only what the previous BFS
        # dirtied.  Sink-rooted levels are what kills dead-end exploration
        # in the blocking flow below: at phase start every labelled node
        # has, by construction of the backward BFS, an admissible arc
        # chain to the sink, so the DFS only ever dead-ends on arcs this
        # phase itself saturated.  Source-rooted levels (what the object
        # walker uses) label the whole source-reachable set, most of which
        # leads nowhere — on transformed temporal networks the DFS then
        # burns the bulk of its time retiring those nodes one by one.
        # ------------------------------------------------------------------
        for i in stale:
            if level[i] >= 0:
                level[i] = ARENA_UNREACHED
        del stale[:]
        level[sink] = 0
        stale_append(sink)
        queue = [sink]
        queue_append = queue.append
        head_ptr = 0
        source_found = False
        while head_ptr < len(queue):
            node = queue[head_ptr]
            head_ptr += 1
            next_level = level[node] + 1
            for k in slots[node]:
                # The arc *into* ``node`` from ``heads[k]`` is the partner
                # slot ``rev[k]``.  Test the level first: most scanned arcs
                # lead to nodes this BFS already labelled, so the cheaper
                # reject comes from the visited check.
                other = heads[k]
                if level[other] == ARENA_UNREACHED and caps[rev[k]] > eps:
                    level[other] = next_level
                    stale_append(other)
                    if other == source:
                        # Every interior node of a shortest augmenting
                        # path is levelled already; stop here.
                        source_found = True
                        break
                    queue_append(other)
            if source_found:
                break
        if not source_found:
            break
        phases += 1
        for i in stale:
            iters[i] = 0

        remaining = (value_bound - total) if bounded else math.inf
        gained, phase_paths, maximal_by_bound = run_blocking_flow(
            heads, caps, rev, slots, level, iters, source, sink, touched,
            remaining,
        )
        total += gained
        n_paths += phase_paths
        if maximal_by_bound:
            break

    if maximal_by_bound:
        # Termination came from the capacity argument, not a failed BFS, so
        # there is no fresh cut to certify — and this run's augmentations
        # may have pierced whatever older cut was recorded.
        arena.cut_closed = False
    else:
        # The loop exits on a failed backward BFS, so the labels left in
        # ``level`` are exactly the can-reach-sink set T — a closed cut
        # certificate that lets the next run towards this sink skip its
        # BFS if nothing pierces it.
        arena.cut_closed = True
        arena.cut_sink = sink

    # ------------------------------------------------------------------
    # Write back only the arcs this run actually touched.  Detached
    # arenas (transform-compiler windows) have no object graph to mirror.
    # ------------------------------------------------------------------
    arcs = arena.arcs
    if arcs is not None:
        for k in touched:
            arcs[k].cap = caps[k]
    return MaxflowRun(
        value=total, augmenting_paths=n_paths, phases=phases, kernel=KERNEL
    )


def run_blocking_flow(
    heads: list[int],
    caps: list[float],
    rev: list[int],
    slots: list[list[int]],
    level: list[int],
    iters: list[int],
    source: int,
    sink: int,
    touched: list[int],
    remaining_bound: float,
) -> tuple[float, int, bool]:
    """One blocking-flow phase over an admissible (sink-rooted) level graph.

    The levels come from the early-stopping backward BFS; the DFS below
    only needs ``level[head] == level[node] - 1`` admissibility.  Mutates ``caps`` / ``iters`` /
    ``level`` in place, appends every modified slot to ``touched`` and
    returns ``(gained, paths, hit_bound)`` where ``hit_bound`` reports
    that the accumulated gain reached ``remaining_bound`` (pass
    ``math.inf`` for unbounded runs) and the caller may skip the final
    certifying BFS.

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
    rev_item = rev.__getitem__
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
            reverse_slots = list(map(rev_item, path_slots))
            for k in reverse_slots:
                caps[k] += bottleneck
            touched += path_slots
            touched += reverse_slots
            total += bottleneck
            n_paths += 1
            if total >= remaining_bound - eps:
                # The gain hit the caller's capacity bound: the flow is
                # maximal, so skip the rest of this phase *and* the
                # final failed BFS.
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
