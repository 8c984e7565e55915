"""Unit tests for the TemporalFlowNetwork structure and its indexes."""

import pickle

import pytest

from repro.core.skeleton import WindowSkeleton
from repro.exceptions import InvalidTimestampError, UnknownNodeError
from repro.temporal import TemporalEdge, TemporalFlowNetwork


@pytest.fixture
def small() -> TemporalFlowNetwork:
    return TemporalFlowNetwork.from_tuples(
        [
            ("s", "a", 1, 3.0),
            ("s", "a", 4, 2.0),
            ("a", "t", 2, 5.0),
            ("a", "t", 5, 1.0),
            ("s", "t", 3, 1.0),
        ]
    )


class TestConstruction:
    def test_counts(self, small):
        assert small.num_nodes == 3
        assert small.num_edges == 5
        assert small.num_timestamps == 5

    def test_duplicate_edges_merge_capacity(self):
        network = TemporalFlowNetwork.from_tuples(
            [("a", "b", 1, 2.0), ("a", "b", 1, 3.0)]
        )
        assert network.num_edges == 1
        assert network.capacity("a", "b", 1) == 5.0

    def test_capacity_of_absent_edge_is_zero(self, small):
        assert small.capacity("t", "s", 1) == 0.0
        assert small.capacity("s", "a", 99) == 0.0

    def test_t_min_t_max(self, small):
        assert small.t_min == 1
        assert small.t_max == 5
        assert small.time_span == 4

    def test_empty_network_has_no_horizon(self):
        network = TemporalFlowNetwork()
        with pytest.raises(InvalidTimestampError):
            _ = network.t_min
        assert network.time_span == 0

    def test_isolated_node(self):
        network = TemporalFlowNetwork()
        network.add_node("lonely")
        assert network.has_node("lonely")
        assert network.num_edges == 0

    def test_contains_and_len(self, small):
        assert "s" in small
        assert "nope" not in small
        assert len(small) == 3


class TestTimestampIndexes:
    def test_tistamp_out(self, small):
        assert list(small.tistamp_out("s")) == [1, 3, 4]
        assert list(small.tistamp_out("a")) == [2, 5]
        assert list(small.tistamp_out("t")) == []

    def test_tistamp_in(self, small):
        assert list(small.tistamp_in("t")) == [2, 3, 5]
        assert list(small.tistamp_in("a")) == [1, 4]
        assert list(small.tistamp_in("s")) == []

    def test_ti_for_source_is_out_stamps(self, small):
        assert list(small.ti("s", "s", "t")) == [1, 3, 4]

    def test_ti_for_sink_is_in_stamps(self, small):
        assert list(small.ti("t", "s", "t")) == [2, 3, 5]

    def test_ti_for_intermediate_is_union(self, small):
        assert list(small.ti("a", "s", "t")) == [1, 2, 4, 5]

    def test_ti_unknown_node_raises(self, small):
        with pytest.raises(UnknownNodeError):
            small.ti("zzz", "s", "t")

    def test_ti_in_window_clips_and_adds_boundaries(self, small):
        # Source always gets the window start; sink the window end.
        assert small.ti_in_window("s", "s", "t", 2, 5) == [2, 3, 4]
        assert small.ti_in_window("t", "s", "t", 1, 4) == [2, 3, 4]
        assert small.ti_in_window("a", "s", "t", 2, 4) == [2, 4]

    def test_ti_in_window_boundary_dedupe(self, small):
        # Window start coincides with an existing source stamp.
        assert small.ti_in_window("s", "s", "t", 1, 5) == [1, 3, 4]
        # Window end coincides with an existing sink stamp.
        assert small.ti_in_window("t", "s", "t", 1, 5) == [2, 3, 5]

    def test_indexes_refresh_after_mutation(self, small):
        small.add_edge(TemporalEdge("s", "a", 7, 1.0))
        assert list(small.tistamp_out("s")) == [1, 3, 4, 7]
        assert small.t_max == 7


class TestDegrees:
    def test_degree_counts_in_and_out(self, small):
        assert small.degree("s") == 3
        assert small.degree("a") == 4
        assert small.degree("t") == 3

    def test_max_degree(self, small):
        assert small.max_degree() == 4

    def test_query_degree_is_max_ti(self, small):
        assert small.query_degree("s", "t") == 3

    def test_degree_tracks_mutation(self, small):
        small.add_edge(TemporalEdge("t", "s", 6, 1.0))
        assert small.degree("s") == 4
        assert small.degree("t") == 4

    def test_degree_tracks_append_after_index_refresh(self):
        # The in-degree cache must follow the epoch: reading t_max clears
        # the stamps-dirty flag the cache used to key on.
        network = TemporalFlowNetwork.from_tuples([("a", "b", 1, 1.0)])
        assert network.degree("b") == 1
        network.add_edge(TemporalEdge("c", "b", 2, 1.0))
        assert network.t_max == 2
        assert network.degree("b") == 2
        assert network.max_degree() == 2


class TestWindowedAccess:
    def test_edges_in_window_is_time_ordered(self, small):
        taus = [edge.tau for edge in small.edges_in_window(1, 5)]
        assert taus == sorted(taus)
        assert len(taus) == 5

    def test_edges_in_window_clips(self, small):
        edges = list(small.edges_in_window(2, 4))
        assert {edge.tau for edge in edges} == {2, 3, 4}

    def test_empty_window(self, small):
        assert list(small.edges_in_window(6, 9)) == []

    def test_out_neighbours(self, small):
        assert list(small.out_neighbours("s", 1)) == ["a"]
        assert list(small.out_neighbours("s", 99)) == []

    def test_sink_capacity_in_window(self, small):
        assert small.sink_capacity_in_window("t", 1, 5) == 7.0
        assert small.sink_capacity_in_window("t", 3, 5) == 2.0
        assert small.sink_capacity_in_window("t", 4, 4) == 0.0

    def test_total_capacity(self, small):
        assert small.total_capacity() == 12.0


def _window_columns(network: TemporalFlowNetwork) -> tuple[list, list, list, list]:
    """The columns ``edges_in_window(t_min, t_max)`` implies, field by field."""
    edges = (
        list(network.edges_in_window(network.t_min, network.t_max))
        if network.num_timestamps
        else []
    )
    return (
        [edge.u for edge in edges],
        [edge.v for edge in edges],
        [edge.tau for edge in edges],
        [edge.capacity for edge in edges],
    )


def _assert_columns_match(network: TemporalFlowNetwork) -> None:
    epoch, *columns = network.edge_columns()
    assert epoch == network.epoch
    assert tuple(columns) == _window_columns(network)


class TestEdgeColumns:
    def test_empty_network(self):
        network = TemporalFlowNetwork()
        assert network.edge_columns() == (0, [], [], [], [])

    def test_match_edges_in_window(self, small):
        _assert_columns_match(small)

    def test_built_once_per_epoch(self, small):
        assert small.edge_columns() is small.edge_columns()

    @pytest.mark.parametrize(
        "edge",
        [
            TemporalEdge("t", "s", 5, 4.0),  # append at t_max
            TemporalEdge("a", "s", 9, 4.0),  # append past t_max
            TemporalEdge("t", "a", 2, 4.0),  # append before t_max
            TemporalEdge("s", "a", 4, 4.0),  # duplicate key: capacity merge
        ],
    )
    def test_rebuilt_into_new_lists_after_append(self, small, edge):
        before = small.edge_columns()
        frozen = tuple(list(column) for column in before[1:])
        small.add_edge(edge)
        after = small.edge_columns()
        assert after[0] == before[0] + 1
        assert all(new is not old for new, old in zip(after[1:], before[1:]))
        assert tuple(before[1:]) == frozen  # published lists never mutate
        _assert_columns_match(small)

    def test_rebuilt_after_add_node_and_adopt_epoch(self, small):
        first = small.edge_columns()
        small.add_node("isolated")
        second = small.edge_columns()
        assert second[0] == first[0] + 1 and second[1:] == first[1:]
        _assert_columns_match(small)
        small.adopt_epoch(small.epoch + 10)
        third = small.edge_columns()
        assert third[0] == second[0] + 10 and third[1:] == second[1:]
        _assert_columns_match(small)

    def test_pickle_leaves_columns_out(self, small):
        small.timestamps  # settle the lazily sorted indexes first
        before = pickle.dumps(small)
        WindowSkeleton(small, "s")
        assert small._columns is not None
        after = pickle.dumps(small)
        assert len(after) == len(before)
        restored = pickle.loads(after)
        assert restored._columns is None
        assert restored.edge_columns() == small.edge_columns()
