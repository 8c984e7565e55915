"""Unit tests for the arc-based FlowNetwork structure."""

import math

import pytest

from repro.exceptions import GraphError, UnknownNodeError
from repro.flownet import EdgeKind, FlowNetwork


class TestNodes:
    def test_add_node_idempotent(self):
        net = FlowNetwork()
        assert net.add_node("a") == net.add_node("a")
        assert net.num_nodes == 1

    def test_index_label_round_trip(self):
        net = FlowNetwork()
        i = net.add_node(("x", 3))
        assert net.label_of(i) == ("x", 3)
        assert net.index_of(("x", 3)) == i

    def test_unknown_label_raises(self):
        with pytest.raises(UnknownNodeError):
            FlowNetwork().index_of("ghost")

    def test_retire(self):
        net = FlowNetwork()
        i = net.add_node("a")
        net.add_node("b")
        assert net.num_active_nodes == 2
        net.retire_node(i)
        assert net.is_retired(i)
        assert net.num_active_nodes == 1
        assert list(net.active_indices()) == [net.index_of("b")]


class TestEdges:
    def test_add_edge_creates_arc_pair(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", 5.0)
        assert net.num_edges == 1
        assert net.forward_arc(ref).cap == 5.0
        assert net.reverse_arc(ref).cap == 0.0

    def test_parallel_edges_allowed(self):
        net = FlowNetwork()
        net.add_edge_labeled("a", "b", 5.0)
        net.add_edge_labeled("a", "b", 3.0)
        assert net.num_edges == 2

    def test_antiparallel_edges_allowed(self):
        net = FlowNetwork()
        net.add_edge_labeled("a", "b", 5.0)
        net.add_edge_labeled("b", "a", 3.0)
        assert net.num_edges == 2

    def test_self_loop_rejected(self):
        net = FlowNetwork()
        i = net.add_node("a")
        with pytest.raises(GraphError):
            net.add_edge(i, i, 1.0)

    def test_negative_capacity_rejected(self):
        net = FlowNetwork()
        net.add_node("a")
        net.add_node("b")
        with pytest.raises(GraphError):
            net.add_edge(0, 1, -1.0)

    def test_out_of_range_endpoints_rejected(self):
        net = FlowNetwork()
        net.add_node("a")
        with pytest.raises(GraphError):
            net.add_edge(0, 5, 1.0)

    def test_edge_kind_and_meta_propagate_to_both_arcs(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", 5.0, kind=EdgeKind.CAPACITY, meta="m")
        assert net.forward_arc(ref).kind is EdgeKind.CAPACITY
        assert net.reverse_arc(ref).kind is EdgeKind.CAPACITY
        assert net.reverse_arc(ref).meta == "m"

    def test_iter_edges_yields_forward_arcs_only(self):
        net = FlowNetwork()
        net.add_edge_labeled("a", "b", 5.0)
        net.add_edge_labeled("b", "c", 3.0)
        edges = list(net.iter_edges())
        assert len(edges) == 2
        assert all(arc.forward for _, arc in edges)


class TestFlowAccounting:
    def test_push_and_read(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", 5.0)
        net.push_on(ref, 2.0)
        assert net.flow_on(ref) == 2.0
        assert net.forward_arc(ref).cap == 3.0
        assert net.edge_capacity(ref) == 5.0

    def test_push_beyond_capacity_rejected(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", 5.0)
        with pytest.raises(GraphError):
            net.push_on(ref, 6.0)

    def test_withdraw(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", 5.0)
        net.push_on(ref, 4.0)
        net.push_on(ref, -3.0)
        assert net.flow_on(ref) == 1.0

    def test_withdraw_beyond_flow_rejected(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", 5.0)
        net.push_on(ref, 1.0)
        with pytest.raises(GraphError):
            net.push_on(ref, -2.0)

    def test_infinite_capacity_edge(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", math.inf)
        net.push_on(ref, 1000.0)
        assert net.flow_on(ref) == 1000.0
        assert math.isinf(net.forward_arc(ref).cap)
        assert math.isinf(net.edge_capacity(ref))

    def test_out_in_flow(self):
        net = FlowNetwork()
        r1 = net.add_edge_labeled("a", "b", 5.0)
        r2 = net.add_edge_labeled("b", "c", 5.0)
        net.push_on(r1, 2.0)
        net.push_on(r2, 2.0)
        a, b, c = (net.index_of(x) for x in "abc")
        assert net.out_flow(a) == 2.0
        assert net.in_flow(b) == 2.0
        assert net.out_flow(b) == 2.0
        assert net.in_flow(c) == 2.0

    def test_kind_filter_on_flows(self):
        net = FlowNetwork()
        r1 = net.add_edge_labeled("a", "b", 5.0, kind=EdgeKind.CAPACITY)
        r2 = net.add_edge_labeled("a", "c", 5.0, kind=EdgeKind.HOLD)
        net.push_on(r1, 2.0)
        net.push_on(r2, 3.0)
        a = net.index_of("a")
        assert net.out_flow(a, kinds=(EdgeKind.CAPACITY,)) == 2.0
        assert net.out_flow(a, kinds=(EdgeKind.HOLD,)) == 3.0

    def test_set_capacity_preserves_flow(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", 5.0)
        net.push_on(ref, 2.0)
        net.set_capacity(ref, 10.0)
        assert net.flow_on(ref) == 2.0
        assert net.forward_arc(ref).cap == 8.0

    def test_set_capacity_below_flow_rejected(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", 5.0)
        net.push_on(ref, 4.0)
        with pytest.raises(GraphError):
            net.set_capacity(ref, 3.0)

    def test_clear_flow(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", 5.0)
        net.push_on(ref, 4.0)
        net.clear_flow()
        assert net.flow_on(ref) == 0.0
        assert net.forward_arc(ref).cap == 5.0

    def test_check_conservation(self):
        net = FlowNetwork()
        r1 = net.add_edge_labeled("a", "b", 5.0)
        net.add_edge_labeled("b", "c", 5.0)
        net.push_on(r1, 2.0)  # b now holds 2 with no outflow
        with pytest.raises(GraphError, match="conservation"):
            net.check_conservation(exempt=(net.index_of("a"),))
        net.check_conservation(
            exempt=(net.index_of("a"), net.index_of("b"))
        )


class TestClone:
    def test_clone_is_deep(self):
        net = FlowNetwork()
        ref = net.add_edge_labeled("a", "b", 5.0)
        copy = net.clone()
        net.push_on(ref, 3.0)
        assert copy.flow_on(ref) == 0.0
        assert net.flow_on(ref) == 3.0

    def test_clone_preserves_retirement(self):
        net = FlowNetwork()
        net.add_edge_labeled("a", "b", 5.0)
        net.retire_label("a")
        copy = net.clone()
        assert copy.is_retired(copy.index_of("a"))
