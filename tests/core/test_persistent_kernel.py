"""Property tests for the persistent residual arena inside the engine.

The incremental engine keeps its flat residual arena alive across
``extend_end`` / ``advance_start`` / ``run_maxflow`` calls.  Hypothesis
drives random operation sequences against twin states — one fed by a
compiled :class:`~repro.core.skeleton.WindowSkeleton`, one reading
reachability from the live network — and asserts, after every step:

* both twins hold the Maxflow of their current window, as computed from
  scratch by the object-graph transform and the object Dinic (the
  *assignments* may differ — all are maximum flows);
* each state's ``to_flow_network()`` export is a valid classical flow
  (capacities, conservation at every active node) whose value equals both
  ``flow_value()`` and that from-scratch Maxflow.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bfq import bfq
from repro.core.bfq_plus import bfq_plus
from repro.core.bfq_star import bfq_star
from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.planner import planner_bfq
from repro.core.query import BurstingFlowQuery
from repro.core.skeleton import WindowSkeleton
from repro.core.transform import build_transformed_network
from repro.flownet import dinic, validate_classical_flow
from repro.temporal import TemporalEdge, TemporalFlowNetwork

TOLERANCE = 1e-7


@st.composite
def temporal_networks(draw) -> TemporalFlowNetwork:
    num_nodes = draw(st.integers(min_value=3, max_value=7))
    horizon = draw(st.integers(min_value=4, max_value=12))
    num_edges = draw(st.integers(min_value=4, max_value=20))
    network = TemporalFlowNetwork()
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        v = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if u == v:
            continue
        tau = draw(st.integers(min_value=1, max_value=horizon))
        capacity = float(draw(st.integers(min_value=1, max_value=9)))
        network.add_edge(TemporalEdge(f"n{u}", f"n{v}", tau, capacity))
    network.add_node("n0")
    network.add_node("n1")
    if not network.num_edges:
        network.add_edge(TemporalEdge("n0", "n1", 1, 1.0))
    return network


def _twins(network, tau_s, tau_e):
    skeleton = WindowSkeleton(network, "n0")
    compiled = IncrementalTransformedNetwork(
        network, "n0", "n1", tau_s, tau_e, skeleton=skeleton
    )
    live = IncrementalTransformedNetwork(network, "n0", "n1", tau_s, tau_e)
    return compiled, live


def _fresh_maxflow(network, tau_s, tau_e):
    transformed = build_transformed_network(network, "n0", "n1", tau_s, tau_e)
    return dinic(
        transformed.flow_network,
        transformed.source_index,
        transformed.sink_index,
    ).value


def _check_step(*states):
    first = states[0]
    expected = _fresh_maxflow(first.temporal, first.tau_s, first.tau_e)
    for state in states:
        value = state.flow_value()
        assert value == pytest.approx(expected, abs=TOLERANCE)
        export = state.to_flow_network()
        certified = validate_classical_flow(
            export.flow_network, export.source_index, export.sink_index
        )
        assert certified == pytest.approx(value, abs=TOLERANCE)
        assert certified == pytest.approx(expected, abs=TOLERANCE)


@settings(max_examples=60, deadline=None)
@given(
    temporal_networks(),
    st.data(),
)
def test_operation_sequences_keep_twins_equivalent(network, data):
    """Random extend/advance/run interleavings: value + export invariants."""
    t_min, t_max = network.t_min, network.t_max
    if t_max - t_min < 2:
        return
    tau_s = t_min
    tau_e = data.draw(
        st.integers(min_value=tau_s + 1, max_value=min(tau_s + 4, t_max)),
        label="initial tau_e",
    )
    compiled, live = _twins(network, tau_s, tau_e)
    compiled.run_maxflow()
    live.run_maxflow()
    _check_step(compiled, live)

    for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="steps")):
        can_extend = compiled.tau_e < t_max
        can_advance = compiled.tau_e - compiled.tau_s > 1
        options = ["run"]
        if can_extend:
            options.append("extend")
        if can_advance:
            options.append("advance")
        op = data.draw(st.sampled_from(options), label="op")
        if op == "extend":
            new_tau_e = data.draw(
                st.integers(min_value=compiled.tau_e + 1, max_value=t_max),
                label="new tau_e",
            )
            compiled.extend_end(new_tau_e)
            live.extend_end(new_tau_e)
        elif op == "advance":
            new_tau_s = data.draw(
                st.integers(
                    min_value=compiled.tau_s + 1,
                    max_value=compiled.tau_e - 1,
                ),
                label="new tau_s",
            )
            compiled.advance_start(new_tau_s)
            live.advance_start(new_tau_s)
        compiled.run_maxflow()
        live.run_maxflow()
        _check_step(compiled, live)


@settings(max_examples=40, deadline=None)
@given(temporal_networks())
def test_value_bound_run_matches_unbounded_twin(network):
    """Bounded runs (Observation 2) must not under-report the Maxflow.

    The ``live`` twin runs unbounded.
    """
    t_min, t_max = network.t_min, network.t_max
    if t_max - t_min < 2:
        return
    compiled, live = _twins(network, t_min, t_min + 1)
    compiled.run_maxflow()
    live.run_maxflow()
    for new_tau_e in range(t_min + 2, t_max + 1):
        pending = network.sink_capacity_in_window(
            "n1", compiled.tau_e + 1, new_tau_e
        )
        compiled.extend_end(new_tau_e)
        live.extend_end(new_tau_e)
        compiled.run_maxflow(value_bound=pending)
        live.run_maxflow()
        _check_step(compiled, live)


def test_clone_preserves_kernel(burst_network):
    skeleton = WindowSkeleton(burst_network, "s")
    state = IncrementalTransformedNetwork(
        burst_network, "s", "t", 0, 2, skeleton=skeleton
    )
    state.run_maxflow()
    other = state.clone()
    other.extend_end(5)
    assert other.run_maxflow().kernel == "persistent"
    assert other._skeleton is skeleton  # noqa: SLF001 - shared compiled index


@pytest.mark.parametrize(
    "algorithm",
    [bfq, bfq_plus, bfq_star, planner_bfq],
    ids=["bfq", "bfq+", "bfq*", "planner"],
)
def test_every_engine_run_is_tallied_as_persistent(burst_network, algorithm):
    result = algorithm(burst_network, BurstingFlowQuery("s", "t", 3))
    assert result.stats.kernel_runs == {"persistent": result.stats.maxflow_runs}
    assert result.stats.kernel_seconds.keys() == {"persistent"}


def _solved_state():
    """``s -> a`` (cap 4) is the min cut; the hold ``<a, 2> -> <a, 3>`` is idle."""
    network = TemporalFlowNetwork.from_tuples(
        [("s", "a", 1, 4.0), ("a", "t", 2, 9.0), ("a", "c", 3, 1.0)]
    )
    state = IncrementalTransformedNetwork(network, "s", "t", 1, 3)
    assert state.run_maxflow().value == 4.0
    return state


def test_resumed_run_finds_an_inserted_edge():
    state = _solved_state()
    assert state.run_maxflow().value == 0.0
    state._add_edge(state.source_index, state.sink_index, 2.0)  # noqa: SLF001
    # The resumed run must search again and find the new path.
    assert state.run_maxflow().value == 2.0


def test_resumed_run_finds_the_arc_a_hold_push_opens():
    state = _solved_state()
    hold = state._hold[state._node_at("a", 3)]  # noqa: SLF001 - <a, 2> -> <a, 3>
    # Routing flow on it opens the residual arc <a, 3> -> <a, 2>.
    state._push_hold(hold, 1.0)  # noqa: SLF001
    assert state.run_maxflow().value == 0.0  # the source arc is saturated
    a3 = state.arena.heads[hold]
    state._add_edge(state.source_index, a3, 2.0)  # noqa: SLF001
    # Only the opened arc leads on to the sink: s -> <a, 3> -> <a, 2> -> t.
    assert state.run_maxflow().value == 1.0


def _assert_slot_pairs(state):
    """Slot ``k``'s partner is ``k ^ 1``: each arc sits in its tail's row."""
    arena = state.arena
    heads, slots = arena.heads, arena.slots
    assert len(heads) % 2 == 0
    rows = [set(row) for row in slots]
    for k in range(len(heads)):
        assert k in rows[heads[k ^ 1]]
        assert k ^ 1 in rows[heads[k]]


@settings(max_examples=80, deadline=None)
@given(temporal_networks(), st.data())
def test_moves_and_clones_keep_slots_paired(network, data):
    """The kernel reads an arc's partner as ``k ^ 1``; every move keeps that."""
    t_min, t_max = network.t_min, network.t_max
    if t_max - t_min < 2:
        return
    skeleton = (
        WindowSkeleton(network, "n0")
        if data.draw(st.booleans(), label="compiled")
        else None
    )
    state = IncrementalTransformedNetwork(
        network, "n0", "n1", t_min, t_min + 1, skeleton=skeleton
    )
    _assert_slot_pairs(state)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6), label="steps")):
        options = ["clone", "run"]
        if state.tau_e < t_max:
            options.append("extend")
        if state.tau_e - state.tau_s > 1:
            options.append("advance")
        op = data.draw(st.sampled_from(options), label="op")
        if op == "extend":
            state.extend_end(
                data.draw(
                    st.integers(min_value=state.tau_e + 1, max_value=t_max),
                    label="new tau_e",
                )
            )
        elif op == "advance":
            state.advance_start(
                data.draw(
                    st.integers(min_value=state.tau_s + 1, max_value=state.tau_e - 1),
                    label="new tau_s",
                )
            )
        elif op == "clone":
            state = state.clone()
        else:
            state.run_maxflow()
        _assert_slot_pairs(state)
