"""Tests for the self-check module and the planner's batch path."""

import importlib

import pytest

from repro import BurstingFlowQuery, find_bursting_flow
from repro.core.planner import answer_planned
from repro.exceptions import InvalidQueryError
from repro.verify import SelfCheckError, self_check

planner_module = importlib.import_module("repro.core.planner")

#: Two sources, interleaved, so the planner answers them source by source
#: and has to put the answers back in input order.
QUERIES = [
    BurstingFlowQuery("s", "t", 2),
    BurstingFlowQuery("a", "t", 1),
    BurstingFlowQuery("s", "t", 5),
    BurstingFlowQuery("a", "t", 3),
    BurstingFlowQuery("s", "t", 10),
]


def answers(results):
    return [(r.density, r.interval, r.flow_value) for r in results]


def individual(network, queries):
    return answers(find_bursting_flow(network, q, algorithm="bfq") for q in queries)


class TestSelfCheck:
    def test_all_checks_pass(self):
        outcomes = self_check(trials=4)
        assert set(outcomes) == {
            "figure2_maxflow",
            "oracle_agreement",
            "lemma1_round_trip",
            "streaming_equivalence",
        }
        for outcome in outcomes.values():
            assert outcome  # every check reports a summary

    def test_deterministic(self):
        assert self_check(trials=3) == self_check(trials=3)

    def test_error_type_exists(self):
        assert issubclass(SelfCheckError, Exception)


class TestBatch:
    """``answer_planned`` equals per-query solves, in input order."""

    @pytest.fixture
    def queries(self):
        return list(QUERIES)

    def test_sequential_matches_individual(self, burst_network, queries):
        results, _report = answer_planned(burst_network, queries)
        assert answers(results) == individual(burst_network, queries)

    def test_result_order_is_input_order(self, burst_network, queries):
        # Reversing the batch reverses the source order the planner works
        # in; each answer still lands at its query's position.
        forward, _report = answer_planned(burst_network, queries)
        backward, _report = answer_planned(burst_network, queries[::-1])
        assert answers(backward) == answers(forward)[::-1]

    def test_empty_batch(self, burst_network):
        results, report = answer_planned(burst_network, [])
        assert results == []
        assert report.queries == 0

    def test_invalid_query_fails_before_any_work(self, burst_network, monkeypatch):
        def never(*_args):
            raise AssertionError("solved before validation")

        monkeypatch.setattr(planner_module, "_solve_source", never)
        bad = [BurstingFlowQuery("s", "t", 2), BurstingFlowQuery("s", "ghost", 2)]
        with pytest.raises(InvalidQueryError):
            answer_planned(burst_network, bad)
