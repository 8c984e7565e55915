"""Behavioural tests for BFQ, BFQ+ and BFQ* on hand-checked networks."""

import pytest

from repro import BurstingFlowQuery, bfq, bfq_plus, bfq_star, find_bursting_flow
from repro.core import build_transformed_network
from repro.flownet.algorithms.edmonds_karp import edmonds_karp
from repro.temporal import TemporalFlowNetwork

ALL = [bfq, bfq_plus, bfq_star]
IDS = ["bfq", "bfq+", "bfq*"]


@pytest.mark.parametrize("algorithm", ALL, ids=IDS)
class TestKnownAnswers:
    def test_burst_dominates(self, algorithm, burst_network):
        result = algorithm(burst_network, BurstingFlowQuery("s", "t", 2))
        assert result.found
        assert result.density == pytest.approx(300.0)  # 900 over [10, 13]
        lo, hi = result.interval
        assert 10 <= lo and hi <= 13

    def test_delta_filters_short_bursts(self, algorithm, burst_network):
        # With delta=10 the [10, 13] burst must be averaged over >= 10
        # ticks: 900/10 = 90 is still the best.
        result = algorithm(burst_network, BurstingFlowQuery("s", "t", 10))
        assert result.density == pytest.approx(90.0)
        lo, hi = result.interval
        assert hi - lo == 10

    def test_chain(self, algorithm, chain_network):
        result = algorithm(chain_network, BurstingFlowQuery("s", "t", 1))
        assert result.density == pytest.approx(5.0 / 2.0)
        assert result.interval == (1, 3)
        assert result.flow_value == pytest.approx(5.0)

    def test_chain_delta_longer_than_horizon(self, algorithm, chain_network):
        result = algorithm(chain_network, BurstingFlowQuery("s", "t", 5))
        assert not result.found
        assert result.interval is None
        assert result.density == 0.0

    def test_unreachable_sink(self, algorithm):
        network = TemporalFlowNetwork.from_tuples(
            [("s", "a", 1, 1.0), ("b", "t", 2, 1.0)]
        )
        result = algorithm(network, BurstingFlowQuery("s", "t", 1))
        assert not result.found

    def test_time_inverted_path_no_flow(self, algorithm):
        network = TemporalFlowNetwork.from_tuples(
            [("s", "a", 5, 1.0), ("a", "t", 2, 1.0), ("s", "b", 1, 1.0), ("b", "t", 3, 1.0)]
        )
        result = algorithm(network, BurstingFlowQuery("s", "t", 1))
        # Only the s->b->t path is temporally valid.
        assert result.density == pytest.approx(1.0 / 2.0)

    def test_corner_case_window_found(self, algorithm):
        """A burst so late that tau_s + delta overshoots the horizon is
        caught by the clamped corner window (footnote 4)."""
        network = TemporalFlowNetwork.from_tuples(
            [
                ("s", "x", 1, 1.0),  # early stamp: stretches the horizon
                ("x", "t", 2, 1.0),
                ("s", "a", 9, 50.0),
                ("a", "t", 10, 50.0),
            ]
        )
        result = algorithm(network, BurstingFlowQuery("s", "t", 5))
        # Best: the corner window [5, 10] carrying the 50-unit burst.
        assert result.density == pytest.approx(50.0 / 5.0)
        assert result.interval == (5, 10)

    def test_stats_populated(self, algorithm, burst_network):
        result = algorithm(burst_network, BurstingFlowQuery("s", "t", 2))
        stats = result.stats
        assert stats.candidates_enumerated > 0
        assert stats.maxflow_runs >= 1
        assert stats.candidates_enumerated == len(stats.samples)
        assert stats.augmenting_paths >= 1

    def test_interval_answer_is_reproducible(self, algorithm, burst_network):
        """The reported interval really achieves the reported density."""
        from repro.core import build_transformed_network
        from repro.flownet import dinic

        result = algorithm(burst_network, BurstingFlowQuery("s", "t", 2))
        lo, hi = result.interval
        transformed = build_transformed_network(burst_network, "s", "t", lo, hi)
        value = dinic(
            transformed.flow_network,
            transformed.source_index,
            transformed.sink_index,
        ).value
        assert value / (hi - lo) == pytest.approx(result.density)


class TestIncrementalInstrumentation:
    def test_bfq_plus_reports_insertions(self, burst_network):
        result = bfq_plus(burst_network, BurstingFlowQuery("s", "t", 2))
        assert result.stats.incremental_insertions > 0
        assert result.stats.incremental_deletions == 0

    def test_bfq_star_reports_deletions(self, burst_network):
        result = bfq_star(burst_network, BurstingFlowQuery("s", "t", 2))
        assert result.stats.incremental_deletions > 0

    def test_pruning_reduces_maxflow_runs(self, burst_network):
        query = BurstingFlowQuery("s", "t", 2)
        pruned = bfq_plus(burst_network, query, use_pruning=True)
        unpruned = bfq_plus(burst_network, query, use_pruning=False)
        assert pruned.density == pytest.approx(unpruned.density)
        assert pruned.stats.maxflow_runs <= unpruned.stats.maxflow_runs
        assert unpruned.stats.pruned_intervals == 0

    def test_bfq_evaluates_every_candidate_with_dinic(self, burst_network):
        result = bfq(burst_network, BurstingFlowQuery("s", "t", 2))
        assert result.stats.maxflow_runs == result.stats.candidates_enumerated
        assert all(s.mode == "dinic" for s in result.stats.samples)

    def test_solver_parameter_for_bfq(self, burst_network):
        """Edmonds-Karp on each window BFQ solved finds the value it recorded."""
        result = bfq(burst_network, BurstingFlowQuery("s", "t", 2))
        assert result.density == pytest.approx(300.0)
        for sample in result.stats.samples:
            transformed = build_transformed_network(
                burst_network, "s", "t", *sample.interval
            )
            run = edmonds_karp(
                transformed.flow_network,
                transformed.source_index,
                transformed.sink_index,
            )
            assert run.value == pytest.approx(sample.flow_value), sample.interval
