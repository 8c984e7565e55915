"""White-box tests for the incremental network's internal operations."""

import math

import pytest

from repro.core.incremental import (
    IncrementalTransformedNetwork,
    _span_position,
)
from repro.flownet.network import EdgeKind
from repro.temporal import TemporalFlowNetwork


@pytest.fixture
def network() -> TemporalFlowNetwork:
    return TemporalFlowNetwork.from_tuples(
        [
            ("s", "a", 1, 4.0),
            ("a", "t", 6, 4.0),
            ("s", "t", 8, 1.0),
        ]
    )


class TestSpanPosition:
    def test_interior_span(self):
        assert _span_position([1, 6], 3) == 0
        assert _span_position([1, 4, 9], 7) == 1

    def test_existing_stamp_returns_none(self):
        assert _span_position([1, 3, 6], 3) is None

    def test_outside_timeline_returns_none(self):
        assert _span_position([3, 6], 1) is None
        assert _span_position([3, 6], 9) is None
        assert _span_position([3], 5) is None


class TestTimestampInjection:
    def test_split_preserves_capacity_and_flow(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 8)
        state.run_maxflow()
        # 'a' holds 4 units across [1, 6]; inject tau=3 mid-hold.
        state._inject_timestamp(3)
        fn = state.to_flow_network().flow_network
        assert fn.has_node(("a", 3))
        caps = state.arena.caps
        # Hold-edge forward slots: the flow sits on the partner slot.
        first = state._hold[state._node_at("a", 3)]
        second = state._hold[state._node_at("a", 6)]
        assert caps[first + 1] == pytest.approx(4.0)
        assert caps[second + 1] == pytest.approx(4.0)
        assert math.isinf(caps[first])
        # The old spanning edge is disabled entirely.
        disabled = [
            arc
            for tail, arc in fn.iter_edges()
            if arc.kind is EdgeKind.HOLD
            and fn.label_of(tail) == ("a", 1)
            and fn.label_of(arc.head) == ("a", 6)
        ]
        assert disabled
        assert disabled[0].cap == 0.0

    def test_injection_is_flow_neutral(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 8)
        state.run_maxflow()
        before = state.flow_value()
        state._inject_timestamp(3)
        assert state.flow_value() == pytest.approx(before)
        # Resuming Dinic finds nothing new after a pure injection.
        assert state.run_maxflow().value == pytest.approx(0.0)

    def test_injection_at_existing_stamp_is_noop(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 8)
        nodes_before = state.num_nodes
        state._inject_timestamp(6)  # 'a' and 't' already have tau=6 nodes
        # Only nodes lacking the stamp get one ('s' spans 1..8).
        assert state.num_nodes == nodes_before + 1
        assert state.to_flow_network().flow_network.has_node(("s", 6))


class TestBoundaryCrossings:
    def test_crossings_report_held_flow(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 8)
        state.run_maxflow()
        state._inject_timestamp(3)
        crossings = state._boundary_crossings(3)
        fn = state.to_flow_network().flow_network
        labels = {fn.label_of(index): flow for index, flow in crossings}
        assert labels == {("a", 3): pytest.approx(4.0)}

    def test_source_chain_excluded(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 8)
        state.run_maxflow()
        state._inject_timestamp(7)
        crossings = state._boundary_crossings(7)
        fn = state.to_flow_network().flow_network
        for index, _ in crossings:
            node, _tau = fn.label_of(index)
            assert node != "s"


class TestFlowValueAccounting:
    def test_value_counts_only_active_source_emission(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 8)
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(5.0)
        state.advance_start(7)
        state.run_maxflow()
        # Only the tau=8 direct edge remains usable.
        assert state.flow_value() == pytest.approx(1.0)

    def test_stats_modes_partition_candidates(self, network):
        from repro import BurstingFlowQuery, bfq_star

        result = bfq_star(network, BurstingFlowQuery("s", "t", 2))
        modes = {sample.mode for sample in result.stats.samples}
        assert modes <= {"dinic", "maxflow+", "maxflow-", "pruned"}
        assert len(result.stats.samples) == result.stats.candidates_enumerated
