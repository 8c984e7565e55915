"""Invariant of the shared insertion step: every extension is followed by a
Maxflow run.

:func:`repro.core.sweep.insertion_step` tests the Observation-2 bound
before it touches the state, so a pruned candidate costs no extension and a
state always ends at its last solved window.
"""

import random

import pytest

from repro.core.bfq_plus import bfq_plus
from repro.core.bfq_star import bfq_star
from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.query import BurstingFlowQuery, QueryStats
from repro.core.record import BestRecord
from repro.core.sweep import insertion_step, solve
from repro.temporal import TemporalFlowNetwork


def burst_then_trickle():
    """One early burst s -> t, then a long trickle s -> a -> t.

    Every candidate ending after the burst is pruned against it.
    """
    edges = [("s", "t", 1, 100.0)]
    for tau in range(3, 13):
        edges += [("s", "a", tau, 1.0), ("a", "t", tau, 1.0)]
    return TemporalFlowNetwork.from_tuples(edges)


def random_network(seed):
    rng = random.Random(seed)
    nodes = ["s", "t", "a", "b", "c", "d"]
    edges = []
    for _ in range(60):
        u, v = rng.sample(nodes, 2)
        edges.append((u, v, rng.randint(1, 30), float(rng.randint(1, 40))))
    return TemporalFlowNetwork.from_tuples(edges)


NETWORKS = [burst_then_trickle()] + [random_network(seed) for seed in range(8)]


def maxflow_plus_runs(stats):
    return sum(1 for sample in stats.samples if sample.mode == "maxflow+")


def run_all(algorithm):
    results = []
    for network in NETWORKS:
        if "s" in network and "t" in network:
            results.append(algorithm(network, BurstingFlowQuery("s", "t", 2)))
    # The invariant is only meaningful if some candidates are pruned.
    assert sum(result.stats.pruned_intervals for result in results) > 0
    return results


def test_bfq_plus_extends_only_before_a_maxflow_run():
    for result in run_all(bfq_plus):
        stats = result.stats
        assert stats.incremental_insertions == maxflow_plus_runs(stats)


def test_bfq_star_extends_only_before_a_maxflow_run():
    # A successor branched off the running state may extend its clone once
    # before its own (maxflow-) run.
    for result in run_all(bfq_star):
        stats = result.stats
        runs = maxflow_plus_runs(stats)
        assert runs <= stats.incremental_insertions
        assert stats.incremental_insertions <= (
            runs + stats.incremental_deletions
        )


def solved_minimal_window(network):
    stats = QueryStats()
    state = IncrementalTransformedNetwork(network, "s", "t", 3, 5)
    solve(state, stats, "dinic", 0.0)
    return state, stats


def test_pruned_step_leaves_the_state_untouched():
    network = burst_then_trickle()
    state, stats = solved_minimal_window(network)
    best = BestRecord()
    best.offer(100.0, 1, 2)
    before = (state.tau_e, state.num_nodes, state.num_edges)

    insertion_step(state, 9, best, stats, use_pruning=True)

    assert (state.tau_e, state.num_nodes, state.num_edges) == before
    assert stats.pruned_intervals == 1
    assert stats.incremental_insertions == 0
    assert stats.samples[-1].mode == "pruned"
    assert stats.samples[-1].interval == (3, 9)


def test_surviving_step_extends_and_solves():
    network = burst_then_trickle()
    state, stats = solved_minimal_window(network)
    best = BestRecord()

    insertion_step(state, 9, best, stats, use_pruning=True)

    assert state.tau_e == 9
    assert stats.incremental_insertions == 1
    assert stats.samples[-1].mode == "maxflow+"
    assert state.flow_value() == pytest.approx(7.0)
    assert best.interval == (3, 9)
