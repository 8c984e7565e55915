"""Tests for the incremental transformed network (Lemmas 3-5)."""

import pytest

from repro.core import IncrementalTransformedNetwork, build_transformed_network
from repro.exceptions import InvalidIntervalError
from repro.flownet import dinic, validate_classical_flow
from repro.temporal import TemporalFlowNetwork


@pytest.fixture
def network() -> TemporalFlowNetwork:
    """Flow arrives in three waves: tau 1-2, tau 3-4, tau 5-6."""
    return TemporalFlowNetwork.from_tuples(
        [
            ("s", "a", 1, 3.0),
            ("a", "t", 2, 3.0),
            ("s", "a", 3, 2.0),
            ("a", "t", 4, 2.0),
            ("s", "b", 5, 4.0),
            ("b", "t", 6, 4.0),
        ]
    )


def scratch_value(network, tau_s, tau_e) -> float:
    transformed = build_transformed_network(network, "s", "t", tau_s, tau_e)
    return dinic(
        transformed.flow_network,
        transformed.source_index,
        transformed.sink_index,
    ).value


class TestInsertionCase:
    def test_extend_matches_scratch(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 2)
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(scratch_value(network, 1, 2))
        for tau_e in (4, 6):
            state.extend_end(tau_e)
            state.run_maxflow()
            assert state.flow_value() == pytest.approx(
                scratch_value(network, 1, tau_e)
            ), f"window [1, {tau_e}]"

    def test_extension_only_adds_missing_paths(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 2)
        first = state.run_maxflow()
        assert first.value == pytest.approx(3.0)
        state.extend_end(4)
        second = state.run_maxflow()
        # Only the new 2 units are found; the old 3 are reused.
        assert second.value == pytest.approx(2.0)
        assert state.flow_value() == pytest.approx(5.0)

    def test_backwards_extension_rejected(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 4)
        with pytest.raises(InvalidIntervalError):
            state.extend_end(3)
        with pytest.raises(InvalidIntervalError):
            state.extend_end(4)

    def test_extension_without_maxflow_keeps_residual_valid(self, network):
        # Extend twice, solve once at the end: same value as scratch.
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 2)
        state.extend_end(4)
        state.extend_end(6)
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(scratch_value(network, 1, 6))


class TestDeletionCase:
    def test_advance_matches_scratch(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 6)
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(9.0)
        withdrawn = state.advance_start(3)
        assert withdrawn == pytest.approx(3.0)  # the first wave disappears
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(scratch_value(network, 3, 6))

    def test_advance_then_extend(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 4)
        state.run_maxflow()
        state.advance_start(3)
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(scratch_value(network, 3, 4))
        state.extend_end(6)
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(scratch_value(network, 3, 6))

    def test_advance_bounds_checked(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 4)
        with pytest.raises(InvalidIntervalError):
            state.advance_start(1)  # not strictly after tau_s
        with pytest.raises(InvalidIntervalError):
            state.advance_start(4)  # not strictly before tau_e

    def test_advance_without_prior_maxflow(self, network):
        # Withdrawing from a zero flow is a no-op but must stay consistent.
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 6)
        withdrawn = state.advance_start(3)
        assert withdrawn == 0.0
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(scratch_value(network, 3, 6))

    def test_repeated_advances(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 6)
        state.run_maxflow()
        state.advance_start(3)
        state.run_maxflow()
        state.advance_start(5)
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(scratch_value(network, 5, 6))

    def test_flow_arriving_at_sink_before_boundary_is_withdrawn(self):
        # All flow lands on t by tau=2; advancing to 3 must withdraw it
        # (the Example 8 pattern: the crossing happens at <t, tau>).
        network = TemporalFlowNetwork.from_tuples(
            [
                ("s", "a", 1, 3.0),
                ("a", "t", 2, 3.0),
                ("s", "t", 4, 1.0),
            ]
        )
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 4)
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(4.0)
        withdrawn = state.advance_start(3)
        assert withdrawn == pytest.approx(3.0)
        state.run_maxflow()
        assert state.flow_value() == pytest.approx(1.0)


class TestClone:
    def test_clone_is_independent(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 4)
        state.run_maxflow()
        snapshot = state.clone()
        state.extend_end(6)
        state.run_maxflow()
        # The snapshot still answers for [1, 4].
        snapshot.run_maxflow()
        assert snapshot.flow_value() == pytest.approx(scratch_value(network, 1, 4))
        assert state.flow_value() == pytest.approx(scratch_value(network, 1, 6))

    def test_clone_after_advance_is_compacted(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 6)
        state.run_maxflow()
        state.advance_start(5)
        before = state.to_flow_network().flow_network.num_nodes
        snapshot = state.clone()
        after = snapshot.to_flow_network().flow_network.num_nodes
        assert after < before  # retired prefix dropped
        assert snapshot.num_nodes == state.num_nodes == after
        snapshot.run_maxflow()
        assert snapshot.flow_value() == pytest.approx(scratch_value(network, 5, 6))

    def test_cloned_state_supports_full_lifecycle(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 4)
        state.run_maxflow()
        snapshot = state.clone()
        snapshot.extend_end(6)
        snapshot.run_maxflow()
        snapshot.advance_start(5)
        snapshot.run_maxflow()
        assert snapshot.flow_value() == pytest.approx(scratch_value(network, 5, 6))


class TestAsTransformed:
    def test_view_fields(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 4)
        state.run_maxflow()
        view = state.to_flow_network()
        assert view.tau_s == 1 and view.tau_e == 4
        assert view.source_index == state.source_index
        assert view.sink_index == state.sink_index
        assert view.num_nodes == state.num_nodes
        assert view.flow_value() == state.flow_value() == 5.0

    def test_export_carries_routed_flow_after_advance(self, network):
        state = IncrementalTransformedNetwork(network, "s", "t", 1, 6)
        state.run_maxflow()
        state.advance_start(3)
        state.run_maxflow()
        export = state.to_flow_network()
        assert export.num_nodes == state.num_nodes
        assert export.flow_value() == state.flow_value()
        assert validate_classical_flow(
            export.flow_network, export.source_index, export.sink_index
        ) == pytest.approx(scratch_value(network, 3, 6))
