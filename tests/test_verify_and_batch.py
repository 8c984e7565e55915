"""Tests for the self-check module and the planner's process pool."""

import importlib
import multiprocessing
import os

import pytest

from repro import BurstingFlowQuery, find_bursting_flow
from repro.core.planner import answer_planned
from repro.exceptions import InvalidQueryError
from repro.verify import SelfCheckError, self_check

planner_module = importlib.import_module("repro.core.planner")

#: Two sources, interleaved, so the planner's pool shards real work and
#: has to put the answers back in input order.
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


def require_fork():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")


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
    """``answer_planned(processes=2)`` equals the sequential planner."""

    @pytest.fixture
    def queries(self):
        return list(QUERIES)

    def test_sequential_matches_individual(self, burst_network, queries):
        results, _report = answer_planned(burst_network, queries)
        assert answers(results) == individual(burst_network, queries)

    def test_parallel_matches_sequential(self, burst_network, queries, monkeypatch):
        sequential, seq_report = answer_planned(burst_network, queries)
        monkeypatch.setattr(planner_module, "_PLAN_NETWORK", burst_network)
        parallel, pool_report = answer_planned(burst_network, queries, processes=2)
        assert answers(parallel) == answers(sequential)
        assert pool_report.skeletons_compiled == seq_report.skeletons_compiled == 2
        # The parent's worker global is reset after a pooled batch.
        assert planner_module._PLAN_NETWORK is None

    def test_result_order_is_input_order(self, burst_network, queries):
        results, _report = answer_planned(burst_network, queries, processes=2)
        assert answers(results) == individual(burst_network, queries)

    def test_empty_batch(self, burst_network):
        results, report = answer_planned(burst_network, [], processes=2)
        assert results == []
        assert report.queries == 0

    def test_invalid_query_fails_before_any_work(self, burst_network, monkeypatch):
        def never(*_args):
            raise AssertionError("solved before validation")

        monkeypatch.setattr(planner_module, "_solve_source", never)
        bad = [BurstingFlowQuery("s", "t", 2), BurstingFlowQuery("s", "ghost", 2)]
        with pytest.raises(InvalidQueryError):
            answer_planned(burst_network, bad, processes=2)

    def test_cpu_count_sentinel(self, burst_network, queries):
        results, _report = answer_planned(burst_network, queries, processes=0)
        assert answers(results) == individual(burst_network, queries)

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_start_methods_match_sequential(self, burst_network, queries, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable on this platform")
        sequential, _ = answer_planned(burst_network, queries)
        parallel, _ = answer_planned(
            burst_network, queries, processes=2, mp_context=method
        )
        assert answers(parallel) == answers(sequential)


class TestBatchCrashRecovery:
    """The planner's pool survives one BrokenProcessPool and resubmits
    the sources that had not finished; a second crash propagates.

    ``_solve_source`` is patched in the parent and reaches the workers
    through ``fork``; the batch has two sources, so the pool really runs.
    """

    def test_recovers_from_one_broken_pool(
        self, burst_network, tmp_path, monkeypatch
    ):
        require_fork()
        sentinel = tmp_path / "crashed-once"
        solve_source = planner_module._solve_source

        def crash_once(network, source, groups):
            try:
                with open(sentinel, "x") as marker:
                    marker.write("boom")
            except FileExistsError:
                return solve_source(network, source, groups)
            os._exit(1)

        monkeypatch.setattr(planner_module, "_solve_source", crash_once)
        results, _report = answer_planned(
            burst_network, QUERIES, processes=2, mp_context="fork"
        )
        assert sentinel.exists()
        assert answers(results) == individual(burst_network, QUERIES)
        assert planner_module._PLAN_NETWORK is None

    def test_second_crash_propagates(self, burst_network, monkeypatch):
        require_fork()
        from concurrent.futures.process import BrokenProcessPool

        def always_dies(network, source, groups):
            os._exit(1)

        monkeypatch.setattr(planner_module, "_solve_source", always_dies)
        monkeypatch.setattr(planner_module, "_PLAN_NETWORK", burst_network)
        with pytest.raises(BrokenProcessPool):
            answer_planned(burst_network, QUERIES, processes=2, mp_context="fork")
        # Worker bookkeeping is reset even on the failure path.
        assert planner_module._PLAN_NETWORK is None
