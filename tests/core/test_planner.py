"""Tests for the multi-query planner (shared skeletons + top-k bursts).

The load-bearing property: a batch routed through the planner — duplicates,
overlapping deltas and all — produces answers *byte-identical* to solving
every query independently with :func:`find_bursting_flow`.  The memo and
the shared skeleton are pure amortisation; they must never change a result.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BurstingFlowQuery,
    PlannerReport,
    WindowMemo,
    answer_planned,
    find_bursting_flow,
    group_queries,
    merge_query_stats,
    planner_bfq,
    top_k_bursts,
)
from repro.exceptions import GraphError, InvalidQueryError
from repro.temporal import TemporalEdge, TemporalFlowNetwork


def random_network(seed: int, nodes: int = 6, edges: int = 24, horizon: int = 12):
    rng = random.Random(seed)
    network = TemporalFlowNetwork()
    for name in ("n0", "n1", "n2", "n3"):
        network.add_node(name)
    for _ in range(edges):
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        if u == v:
            continue
        network.add_edge(
            TemporalEdge(
                f"n{u}", f"n{v}", rng.randint(1, horizon), float(rng.randint(1, 9))
            )
        )
    return network


def overlapping_batch(deltas=(2, 3, 2, 5, 3)) -> list[BurstingFlowQuery]:
    """A batch with duplicate queries and delta-overlapping sweeps."""
    batch = [BurstingFlowQuery("n0", "n1", d) for d in deltas]
    batch += [BurstingFlowQuery("n2", "n3", d) for d in deltas[:3]]
    batch.append(BurstingFlowQuery("n0", "n1", deltas[0]))  # exact duplicate
    return batch


def assert_results_identical(planned, independent):
    assert len(planned) == len(independent)
    for ours, theirs in zip(planned, independent):
        assert ours.density == theirs.density
        assert ours.interval == theirs.interval
        assert ours.flow_value == theirs.flow_value


@st.composite
def temporal_networks(draw) -> TemporalFlowNetwork:
    num_nodes = draw(st.integers(min_value=3, max_value=6))
    horizon = draw(st.integers(min_value=2, max_value=8))
    num_edges = draw(st.integers(min_value=3, max_value=15))
    network = TemporalFlowNetwork()
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        v = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if u == v:
            continue
        tau = draw(st.integers(min_value=1, max_value=horizon))
        capacity = float(draw(st.integers(min_value=1, max_value=9)))
        network.add_edge(TemporalEdge(f"n{u}", f"n{v}", tau, capacity))
    for name in ("n0", "n1", "n2"):
        network.add_node(name)
    if not network.num_edges:
        network.add_edge(TemporalEdge("n0", "n1", 1, 1.0))
    return network


class TestPlannerEquivalence:
    """Planner answers == independent answers, always."""

    @settings(max_examples=50, deadline=None)
    @given(
        temporal_networks(),
        st.lists(
            st.tuples(
                st.sampled_from([("n0", "n1"), ("n1", "n0"), ("n0", "n2")]),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_property_planned_matches_independent(self, network, raw_batch):
        # Duplicates and delta-overlap arise naturally from the small
        # sample space; both amortisation paths (memo hit, shared
        # skeleton) are exercised across examples.
        batch = [
            BurstingFlowQuery(source, sink, delta)
            for (source, sink), delta in raw_batch
        ]
        planned, report = answer_planned(network, batch)
        independent = [find_bursting_flow(network, query) for query in batch]
        assert_results_identical(planned, independent)
        assert report.queries == len(batch)
        assert report.windows_solved + report.windows_reused == report.windows_total

    def test_duplicate_heavy_batch_reuses_windows(self):
        network = random_network(3)
        batch = overlapping_batch()
        planned, report = answer_planned(network, batch)
        independent = [find_bursting_flow(network, query) for query in batch]
        assert_results_identical(planned, independent)
        assert report.groups == 2
        # Skeletons are compiled lazily — a group whose candidate plan is
        # empty never pays for one.
        assert 1 <= report.skeletons_compiled <= report.groups
        assert report.windows_reused > 0
        assert report.amortization > 1.0
        # Every solved window is attributed to the kernel that ran it, or
        # was answered 0.0 without one because no edge reaches the sink.
        merged = merge_query_stats(result.stats for result in planned)
        assert merged.kernel_runs == {"persistent": merged.maxflow_runs}
        assert (
            merged.maxflow_runs + merged.pruned_intervals == report.windows_solved
        )

    def test_windows_that_cannot_reach_the_sink_skip_maxflow(self):
        # Flow leaving s at 2 first reaches t at 5, and flow leaving at 6
        # or 8 first at 12 (x -> t at 5 is too early for c, y is never
        # reached), so every window of those starts that ends earlier
        # holds no included sink in-edge.
        network = TemporalFlowNetwork.from_tuples(
            [
                ("s", "a", 1, 5.0),
                ("s", "b", 2, 4.0),
                ("a", "t", 3, 5.0),
                ("b", "x", 4, 4.0),
                ("s", "c", 6, 3.0),
                ("c", "x", 7, 3.0),
                ("s", "a", 8, 2.0),
                ("a", "t", 12, 2.0),
                ("x", "t", 5, 1.0),
                ("y", "t", 10, 1.0),
            ]
        )
        batch = [BurstingFlowQuery("s", "t", delta) for delta in (2, 3, 2, 1)]
        planned, report = answer_planned(network, batch)
        independent = [
            find_bursting_flow(network, query, algorithm="bfq") for query in batch
        ]
        assert_results_identical(planned, independent)
        merged = merge_query_stats(result.stats for result in planned)
        assert merged.maxflow_runs < report.windows_solved
        assert report.windows_solved + report.windows_reused == report.windows_total

    def test_process_pool_matches_sequential(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        network = random_network(7)
        batch = overlapping_batch()
        sequential, seq_report = answer_planned(network, batch)
        pooled, pool_report = answer_planned(
            network, batch, processes=2, mp_context="fork"
        )
        assert_results_identical(pooled, sequential)
        # The pool shards whole groups, so the amortisation bookkeeping
        # is identical too, not merely equivalent.
        assert pool_report.windows_total == seq_report.windows_total
        assert pool_report.windows_solved == seq_report.windows_solved
        assert pool_report.windows_reused == seq_report.windows_reused

    def test_process_pool_shards_by_source(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        network = random_network(5)
        batch = [
            BurstingFlowQuery(source, sink, delta)
            for delta in (2, 3)
            for source, sink in (
                ("n0", "n1"), ("n2", "n3"), ("n0", "n3"), ("n2", "n1")
            )
        ]
        sequential, seq_report = answer_planned(network, batch)
        pooled, pool_report = answer_planned(
            network, batch, processes=2, mp_context="fork"
        )
        assert_results_identical(pooled, sequential)
        assert_results_identical(
            sequential, [find_bursting_flow(network, query) for query in batch]
        )
        # One skeleton per source, shared by its two sinks; the pool
        # shards whole sources, so the merged report is identical.
        assert pool_report.groups == 4
        assert pool_report.skeletons_compiled == 2
        seq_report.solve_seconds = pool_report.solve_seconds = 0.0
        assert pool_report == seq_report

    def test_answer_many_shared_plan_matches_independent(self):
        """The planner against the independent plan: one default-algorithm
        solve per query, which the service runs for ``plan="independent"``."""
        network = random_network(11)
        batch = overlapping_batch()
        shared, _report = answer_planned(network, batch)
        independent = [find_bursting_flow(network, query) for query in batch]
        assert_results_identical(shared, independent)

    def test_empty_batch(self):
        network = random_network(0)
        results, report = answer_planned(network, [])
        assert results == []
        assert report.queries == 0
        assert report.amortization == 0.0


class TestPlanValidation:
    def test_unknown_endpoint_rejected_before_solving(self):
        network = random_network(0)
        with pytest.raises(InvalidQueryError, match="ghost"):
            answer_planned(network, [BurstingFlowQuery("n0", "ghost", 2)])


class TestGroupQueries:
    def test_groups_preserve_first_appearance_order(self):
        batch = [
            BurstingFlowQuery("a", "b", 2),
            BurstingFlowQuery("c", "d", 2),
            BurstingFlowQuery("a", "b", 5),
            BurstingFlowQuery("c", "d", 9),
            BurstingFlowQuery("a", "c", 1),
        ]
        groups = group_queries(batch)
        assert [(g.source, g.sink) for g in groups] == [
            ("a", "b"),
            ("c", "d"),
            ("a", "c"),
        ]
        assert groups[0].indices == (0, 2)
        assert groups[1].indices == (1, 3)
        assert groups[2].indices == (4,)

    def test_indices_cover_the_batch_exactly_once(self):
        batch = overlapping_batch()
        groups = group_queries(batch)
        covered = sorted(i for g in groups for i in g.indices)
        assert covered == list(range(len(batch)))


class TestPlannerReport:
    def test_absorb_is_field_complete(self):
        import dataclasses

        left = PlannerReport(**{
            spec.name: index + 1
            for index, spec in enumerate(dataclasses.fields(PlannerReport))
        })
        right = PlannerReport(**{
            spec.name: 10 * (index + 1)
            for index, spec in enumerate(dataclasses.fields(PlannerReport))
        })
        left.absorb(right)
        for index, spec in enumerate(dataclasses.fields(PlannerReport)):
            assert getattr(left, spec.name) == 11 * (index + 1), spec.name

    def test_amortization(self):
        report = PlannerReport(windows_total=12, windows_solved=4)
        assert report.amortization == 3.0
        assert PlannerReport().amortization == 0.0  # no divide-by-zero

    def test_as_dict_round_trips_every_field(self):
        import dataclasses

        report = PlannerReport(queries=3, windows_total=9, windows_solved=3)
        payload = report.as_dict()
        for spec in dataclasses.fields(PlannerReport):
            assert payload[spec.name] == getattr(report, spec.name)
        assert payload["amortization"] == 3.0


class TestWindowMemo:
    def test_round_trip(self):
        network = random_network(1)
        memo = WindowMemo(network)
        assert memo.get((1, 4)) is None
        memo.put((1, 4), 7.5, 12)
        assert memo.get((1, 4)) == (7.5, 12)

    def test_epoch_guard_fires_after_mutation(self):
        network = random_network(1)
        memo = WindowMemo(network)
        memo.put((1, 4), 7.5, 12)
        network.add_edge(TemporalEdge("n0", "n1", network.t_max, 1.0))
        with pytest.raises(GraphError, match="mutated under the planner"):
            memo.get((1, 4))


class TestTopKBursts:
    def test_ranking_matches_independent_answers(self):
        network = random_network(5)
        pairs = [("n0", "n1"), ("n2", "n3"), ("n1", "n0"), ("n0", "n2")]
        entries = top_k_bursts(network, pairs, 3, k=10)
        expected = []
        for position, (source, sink) in enumerate(pairs):
            result = find_bursting_flow(
                network, BurstingFlowQuery(source, sink, 3)
            )
            if not result.found:
                continue
            tau_s, tau_e = result.interval
            expected.append(
                (
                    (-result.density, tau_s, tau_e - tau_s, position),
                    (source, sink, result.density, result.interval),
                )
            )
        expected.sort(key=lambda item: item[0])
        assert [
            (e.source, e.sink, e.density, e.interval) for e in entries
        ] == [payload for _key, payload in expected]
        for entry in entries:
            assert entry.delta == 3

    def test_k_truncates(self):
        network = random_network(5)
        pairs = [("n0", "n1"), ("n2", "n3"), ("n1", "n0"), ("n0", "n2")]
        full = top_k_bursts(network, pairs, 3, k=10)
        if len(full) < 2:
            pytest.skip("seed produced fewer than two positive bursts")
        top_one = top_k_bursts(network, pairs, 3, k=1)
        assert top_one == full[:1]

    def test_duplicate_pairs_deduplicated_first_wins(self):
        network = random_network(5)
        once = top_k_bursts(network, [("n0", "n1")], 3, k=5)
        doubled = top_k_bursts(
            network, [("n0", "n1"), ("n0", "n1"), ("n0", "n1")], 3, k=5
        )
        assert doubled == once

    def test_pairs_without_burst_are_dropped(self):
        network = TemporalFlowNetwork.from_tuples(
            [("a", "b", 1, 5.0), ("a", "b", 2, 5.0)]
        )
        network.add_node("x")
        network.add_node("y")
        entries = top_k_bursts(network, [("a", "b"), ("x", "y")], 1, k=5)
        assert [(e.source, e.sink) for e in entries] == [("a", "b")]

    @pytest.mark.parametrize("k", [0, -1])
    def test_invalid_k_rejected(self, k):
        network = random_network(0)
        with pytest.raises(InvalidQueryError, match="k must be >= 1"):
            top_k_bursts(network, [("n0", "n1")], 2, k=k)


class TestPlannerOracleBackend:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("delta", [1, 2, 4])
    def test_matches_find_bursting_flow(self, seed, delta):
        network = random_network(seed)
        query = BurstingFlowQuery("n0", "n1", delta)
        via_planner = planner_bfq(network, query)
        direct = find_bursting_flow(network, query)
        assert via_planner.density == direct.density
        assert via_planner.interval == direct.interval
        assert via_planner.flow_value == direct.flow_value

    def test_registered_with_the_oracle(self):
        from repro.oracle.runner import BACKENDS, DEFAULT_BACKENDS, PLAN_BACKENDS

        assert BACKENDS["planner"] is planner_bfq
        assert "planner" in DEFAULT_BACKENDS
        assert "planner" in PLAN_BACKENDS
