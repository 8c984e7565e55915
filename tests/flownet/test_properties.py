"""Property-based tests for the Maxflow substrate (hypothesis).

Invariants checked on random networks:

* all registered solvers report the same Maxflow value;
* Maxflow equals min-cut capacity (strong duality);
* the extracted flow satisfies the flow axioms;
* path decomposition reconstructs the value.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flownet import (
    FlowNetwork,
    decompose_into_paths,
    dinic,
    dinic_flat,
    dinic_flat_persistent,
    edmonds_karp,
    ford_fulkerson,
    lp_maxflow,
    min_cut,
    push_relabel,
    validate_classical_flow,
)

TOLERANCE = 1e-6


@st.composite
def random_flow_networks(draw) -> FlowNetwork:
    """Random directed networks with integer capacities on 4-9 nodes."""
    num_nodes = draw(st.integers(min_value=4, max_value=9))
    num_edges = draw(st.integers(min_value=3, max_value=24))
    net = FlowNetwork()
    for i in range(num_nodes):
        net.add_node(i)
    for _ in range(num_edges):
        tail = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        head = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if tail == head:
            continue
        capacity = float(draw(st.integers(min_value=1, max_value=20)))
        net.add_edge(tail, head, capacity)
    return net


@settings(max_examples=60, deadline=None)
@given(random_flow_networks())
def test_all_solvers_agree(net: FlowNetwork):
    source, sink = 0, 1
    reference = dinic(net.clone(), source, sink).value
    assert abs(dinic_flat(net.clone(), source, sink).value - reference) < TOLERANCE
    assert (
        abs(dinic_flat_persistent(net.clone(), source, sink).value - reference)
        < TOLERANCE
    )
    assert abs(edmonds_karp(net.clone(), source, sink).value - reference) < TOLERANCE
    assert abs(ford_fulkerson(net.clone(), source, sink).value - reference) < TOLERANCE
    assert abs(push_relabel(net.clone(), source, sink).value - reference) < TOLERANCE
    assert abs(lp_maxflow(net.clone(), source, sink).value - reference) < TOLERANCE


@settings(max_examples=60, deadline=None)
@given(random_flow_networks())
def test_maxflow_equals_mincut(net: FlowNetwork):
    source, sink = 0, 1
    value = dinic(net, source, sink).value
    cut = min_cut(net, source, sink)
    assert abs(cut.capacity - value) < TOLERANCE


@settings(max_examples=60, deadline=None)
@given(random_flow_networks())
def test_flow_axioms_and_decomposition(net: FlowNetwork):
    source, sink = 0, 1
    value = dinic(net, source, sink).value
    checked = validate_classical_flow(net, source, sink)
    assert abs(checked - value) < TOLERANCE
    paths = decompose_into_paths(net, source, sink)
    assert abs(sum(amount for _, amount in paths) - value) < TOLERANCE


@settings(max_examples=40, deadline=None)
@given(random_flow_networks(), st.integers(min_value=2, max_value=8))
def test_resumability_matches_one_shot(net: FlowNetwork, extra_cap: int):
    """Solving, adding an edge, and resuming == solving the final network."""
    source, sink = 0, 1
    final = net.clone()
    final.add_edge(0, net.num_nodes - 1, float(extra_cap))
    final.add_edge(net.num_nodes - 1, 1, float(extra_cap))
    one_shot = dinic(final.clone(), source, sink).value

    first = dinic(net, source, sink).value
    net.add_edge(0, net.num_nodes - 1, float(extra_cap))
    net.add_edge(net.num_nodes - 1, 1, float(extra_cap))
    resumed = first + dinic(net, source, sink).value
    assert abs(resumed - one_shot) < TOLERANCE


@settings(max_examples=40, deadline=None)
@given(random_flow_networks(), st.integers(min_value=2, max_value=8))
def test_persistent_resumability_matches_one_shot(net: FlowNetwork, extra_cap: int):
    """Same as above, but resuming through the persistent arena kernel."""
    source, sink = 0, 1
    final = net.clone()
    final.add_edge(0, net.num_nodes - 1, float(extra_cap))
    final.add_edge(net.num_nodes - 1, 1, float(extra_cap))
    one_shot = dinic(final.clone(), source, sink).value

    first = dinic_flat_persistent(net, source, sink).value
    net.add_edge(0, net.num_nodes - 1, float(extra_cap))
    net.add_edge(net.num_nodes - 1, 1, float(extra_cap))
    resumed = first + dinic_flat_persistent(net, source, sink).value
    assert abs(resumed - one_shot) < TOLERANCE
    # The one-shot arena wrote its residual state back: a valid flow of
    # exactly the resumed value.
    assert abs(validate_classical_flow(net, source, sink) - resumed) < TOLERANCE
