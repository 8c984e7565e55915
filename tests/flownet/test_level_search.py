"""Differential test: the bidirectional level search against a sink-rooted BFS.

``arena_maxflow`` labels each phase's level graph with a balanced
bidirectional search.  The claim is that the blocking-flow DFS then finds
exactly the augmenting paths, in exactly the order, that a one-sided BFS
backwards from the sink gives it.  ``_sink_rooted_maxflow`` below is that
one-sided search, driving the same ``run_blocking_flow``.  Both run on
twin copies of one arena and must agree on ``value``, ``phases``,
``augmenting_paths`` and the whole ``caps`` array afterwards: equal
residual capacities mean the same augmentations were made.
"""

import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.skeleton import WindowSkeleton
from repro.flownet.algorithms.base import MaxflowRun
from repro.flownet.algorithms.dinic_flat_persistent import (
    KERNEL,
    arena_maxflow,
    run_blocking_flow,
)
from repro.flownet.network import FLOW_EPSILON
from repro.flownet.residual import ARENA_RETIRED, ARENA_UNREACHED, ResidualArena
from repro.temporal import TemporalEdge, TemporalFlowNetwork


def _sink_rooted_maxflow(arena, source, sink, value_bound=None):
    """Resumable Dinic whose phase BFS runs back from the sink only."""
    if source == sink:
        return MaxflowRun(value=0.0, kernel=KERNEL)
    heads, caps, slots = arena.heads, arena.caps, arena.slots
    level, iters, stale = arena.level, arena.iters, arena.stale_labels
    if level[source] == ARENA_RETIRED or level[sink] == ARENA_RETIRED:
        return MaxflowRun(value=0.0, kernel=KERNEL)
    if value_bound is not None and value_bound <= FLOW_EPSILON:
        return MaxflowRun(value=0.0, kernel=KERNEL)
    total, n_paths, phases = 0.0, 0, 0
    while True:
        for i in stale:
            if level[i] >= 0:
                level[i] = ARENA_UNREACHED
        del stale[:]
        level[sink] = 0
        stale.append(sink)
        queue = [sink]
        found = False
        for node in queue:
            for k in slots[node]:
                other = heads[k]
                if level[other] == ARENA_UNREACHED and caps[k ^ 1] > FLOW_EPSILON:
                    level[other] = level[node] + 1
                    stale.append(other)
                    if other == source:
                        found = True
                        break
                    queue.append(other)
            if found:
                break
        if not found:
            break
        phases += 1
        for i in stale:
            iters[i] = 0
        remaining = math.inf if value_bound is None else value_bound - total
        gained, paths, hit_bound = run_blocking_flow(
            heads, caps, slots, level, iters, source, sink, remaining
        )
        total += gained
        n_paths += paths
        if hit_bound:
            break
    return MaxflowRun(
        value=total, augmenting_paths=n_paths, phases=phases, kernel=KERNEL
    )


def _twin(arena):
    twin = ResidualArena(
        list(arena.heads), list(arena.caps),
        [list(row) for row in arena.slots],
    )
    twin.level = list(arena.level)
    twin.iters = list(arena.iters)
    twin.stale_labels = list(arena.stale_labels)
    return twin


def _differential_run(arena, source, sink, value_bound=None):
    """Run both searches on twins; assert they agree; keep the kernel's arena."""
    reference = _twin(arena)
    expected = _sink_rooted_maxflow(reference, source, sink, value_bound)
    run = arena_maxflow(arena, source, sink, value_bound=value_bound)
    assert run.value == expected.value
    assert run.phases == expected.phases
    assert run.augmenting_paths == expected.augmenting_paths
    assert arena.caps == reference.caps
    return run


def _add_arc_pair(arena, tail, head, capacity, residual_back):
    slot = len(arena.heads)
    arena.heads.extend((head, tail))
    arena.caps.extend((capacity, residual_back))
    arena.slots[tail].append(slot)
    arena.slots[head].append(slot + 1)


capacities = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 0.5, math.inf])


@st.composite
def residual_arenas(draw):
    """Arbitrary residual states: parallel arcs, retired nodes, flow on arcs."""
    n = draw(st.integers(min_value=2, max_value=12))
    arena = ResidualArena([], [], [[] for _ in range(n)])
    source, sink = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=2, max_size=2, unique=True,
        )
    )
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda pair: pair[0] != pair[1])
    for tail, head in draw(st.lists(pairs, max_size=40)):
        capacity = draw(capacities)
        if math.isinf(capacity) and tail == source:
            capacity = 4.0  # no all-infinite augmenting path
        back = draw(st.sampled_from([0.0, 0.0, 1.0, 2.0]))
        _add_arc_pair(arena, tail, head, capacity, back)
    for node in draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3)):
        if node not in (source, sink) or draw(st.booleans()):
            arena.level[node] = ARENA_RETIRED
    if draw(st.booleans()):
        # A source that cannot reach the sink.
        for k in arena.slots[source]:
            arena.caps[k] = 0.0
    return arena, source, sink


@settings(max_examples=300, deadline=None)
@given(residual_arenas(), st.data())
def test_random_arenas_augment_exactly_as_the_sink_rooted_search(case, data):
    arena, source, sink = case
    bound = data.draw(st.sampled_from([None, None, 0.0, 1.0, 3.5]), label="bound")
    _differential_run(arena, source, sink, bound)
    # Resume after a new arc: stale labels from the last run must clear.
    n = len(arena.slots)
    tail = data.draw(st.integers(min_value=0, max_value=n - 1), label="tail")
    head = data.draw(st.integers(min_value=0, max_value=n - 1), label="head")
    if tail != head:
        _add_arc_pair(arena, tail, head, 2.0, 0.0)
    _differential_run(arena, source, sink)
    assert _differential_run(arena, source, sink).value == 0.0


@st.composite
def temporal_networks(draw):
    num_nodes = draw(st.integers(min_value=3, max_value=7))
    horizon = draw(st.integers(min_value=4, max_value=12))
    network = TemporalFlowNetwork()
    for _ in range(draw(st.integers(min_value=4, max_value=24))):
        u = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        v = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if u != v:
            tau = draw(st.integers(min_value=1, max_value=horizon))
            capacity = float(draw(st.integers(min_value=1, max_value=9)))
            network.add_edge(TemporalEdge(f"n{u}", f"n{v}", tau, capacity))
    network.add_node("n0")
    network.add_node("n1")
    if not network.num_edges:
        network.add_edge(TemporalEdge("n0", "n1", 1, 1.0))
    return network


@settings(max_examples=200, deadline=None)
@given(temporal_networks(), st.data())
def test_engine_states_augment_exactly_as_the_sink_rooted_search(network, data):
    """Every engine run, withdrawal runs included, checked against the twin."""
    t_min, t_max = network.t_min, network.t_max
    if t_max - t_min < 2:
        return
    incremental = importlib.import_module("repro.core.incremental")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incremental, "arena_maxflow", _differential_run)
        skeleton = (
            WindowSkeleton(network, "n0")
            if data.draw(st.booleans(), label="compiled")
            else None
        )
        state = IncrementalTransformedNetwork(
            network, "n0", "n1", t_min, t_min + 1, skeleton=skeleton
        )
        state.run_maxflow()
        for _ in range(data.draw(st.integers(min_value=1, max_value=5), label="steps")):
            options = []
            if state.tau_e < t_max:
                options.append("extend")
            if state.tau_e - state.tau_s > 1:
                options.append("advance")
            if not options:
                break
            if data.draw(st.sampled_from(options), label="op") == "extend":
                state.extend_end(
                    data.draw(
                        st.integers(min_value=state.tau_e + 1, max_value=t_max),
                        label="new tau_e",
                    )
                )
            else:
                state.advance_start(
                    data.draw(
                        st.integers(
                            min_value=state.tau_s + 1, max_value=state.tau_e - 1
                        ),
                        label="new tau_s",
                    )
                )
            state.run_maxflow()
