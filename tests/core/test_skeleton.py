"""Differential tests for the transform compiler (``core/skeleton.py``).

The skeleton path must be *indistinguishable* from the object-graph
transform: same node set, same Maxflow value, certificates that hold, and
end-to-end answers from every algorithm identical to a per-window
object-graph reference (``build_transformed_network`` + object Dinic).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BurstingFlowQuery, bfq, bfq_plus, bfq_star, find_bursting_flow
from repro.core import enumerate_candidates
from repro.core.bfq_plus import bfq_plus as bfq_plus_direct
from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.query import QueryStats
from repro.core.record import BestRecord
from repro.core.skeleton import WindowSkeleton
from repro.core.sweep import solve_fresh
from repro.core.transform import (
    assemble,
    build_transformed_network,
    reachable_edges,
)
from repro.exceptions import GraphError, InvalidIntervalError
from repro.flownet import dinic
from repro.flownet.mincut import certify_maxflow
from repro.temporal import TemporalEdge, TemporalFlowNetwork

TOLERANCE = 1e-9


def random_network(seed: int, nodes: int = 6, edges: int = 20, horizon: int = 12):
    rng = random.Random(seed)
    network = TemporalFlowNetwork()
    network.add_node("n0")
    network.add_node("n1")
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


def candidate_windows(network, source="n0", sink="n1", delta=2):
    plan = enumerate_candidates(network, source, sink, delta)
    return list(plan.intervals())


def object_bfq(network, query):
    """BFQ over the Lemma-2 plan, rebuilding every window as an object graph."""
    best = BestRecord()
    for tau_s, tau_e in candidate_windows(
        network, query.source, query.sink, query.delta
    ):
        transformed = build_transformed_network(
            network, query.source, query.sink, tau_s, tau_e
        )
        run = dinic(
            transformed.flow_network,
            transformed.source_index,
            transformed.sink_index,
        )
        best.offer(run.value, tau_s, tau_e)
    return best


class TestWindowEquality:
    """Fresh skeleton-built states vs build_transformed_network, window by window."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_nodes_value_and_certificate(self, seed):
        network = random_network(seed)
        skeleton = WindowSkeleton(network, "n0")
        for tau_s, tau_e in candidate_windows(network):
            window = IncrementalTransformedNetwork(
                network, "n0", "n1", tau_s, tau_e, skeleton=skeleton
            )
            reference = build_transformed_network(network, "n0", "n1", tau_s, tau_e)
            assert window.num_nodes == reference.num_nodes
            assert window.num_edges == reference.num_edges

            run = window.run_maxflow()
            ref_run = dinic(
                reference.flow_network,
                reference.source_index,
                reference.sink_index,
            )
            assert abs(run.value - ref_run.value) < TOLERANCE
            assert abs(window.flow_value() - ref_run.value) < TOLERANCE

            # The residual state the object-graph Dinic left behind must
            # certify the value the arena kernel computed.
            assert (
                certify_maxflow(
                    reference.flow_network,
                    reference.source_index,
                    reference.sink_index,
                    run.value,
                )
                == []
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_to_flow_network_is_byte_identical(self, seed):
        network = random_network(seed, edges=15)
        skeleton = WindowSkeleton(network, "n0")
        for tau_s, tau_e in candidate_windows(network)[:6]:
            rebuilt = assemble(
                network, "n0", "n1", tau_s, tau_e,
                skeleton.included_between(tau_s, tau_s, tau_e),
            )
            reference = build_transformed_network(network, "n0", "n1", tau_s, tau_e)
            assert list(rebuilt.flow_network.labels()) == list(
                reference.flow_network.labels()
            )
            assert rebuilt.source_index == reference.source_index
            assert rebuilt.sink_index == reference.sink_index
            assert rebuilt.num_edges == reference.num_edges

    def test_reversed_window_raises(self):
        network = random_network(0)
        skeleton = WindowSkeleton(network, "n0")
        with pytest.raises(InvalidIntervalError):
            IncrementalTransformedNetwork(
                network, "n0", "n1", 5, 3, skeleton=skeleton
            )


class TestSkeletonMatchesState:
    """A state refuses a skeleton compiled for other endpoints or data."""

    @staticmethod
    def _network():
        network = TemporalFlowNetwork()
        network.add_edge(TemporalEdge("s", "a", 1, 5.0))
        network.add_edge(TemporalEdge("a", "t", 2, 5.0))
        network.add_edge(TemporalEdge("x", "t", 1, 3.0))
        return network

    def test_live_state_value(self):
        state = IncrementalTransformedNetwork(self._network(), "s", "t", 1, 2)
        assert state.run_maxflow().value == 5.0

    def test_skeleton_for_another_source_raises(self):
        network = self._network()
        with pytest.raises(GraphError, match="another network or"):
            IncrementalTransformedNetwork(
                network, "s", "t", 1, 2, skeleton=WindowSkeleton(network, "x")
            )

    def test_skeleton_for_another_network_raises(self):
        skeleton = WindowSkeleton(self._network(), "s")
        with pytest.raises(GraphError, match="another network or"):
            IncrementalTransformedNetwork(
                self._network(), "s", "t", 1, 2, skeleton=skeleton
            )

    def test_matching_skeleton_builds_the_live_window(self):
        network = self._network()
        state = IncrementalTransformedNetwork(
            network, "s", "t", 1, 2, skeleton=WindowSkeleton(network, "s")
        )
        assert state.run_maxflow().value == 5.0


class TestLazySweep:
    """The resumable per-start index equals reachable_edges on any range."""

    @pytest.mark.parametrize("seed", range(6))
    def test_included_matches_reachable_edges(self, seed):
        network = random_network(seed)
        skeleton = WindowSkeleton(network, "n0")
        t_min, t_max = network.t_min, network.t_max
        for tau_s in range(t_min, t_max):
            # Ask for growing prefixes, exercising the resume path.
            arrival = {}
            previous_hi = tau_s - 1
            for hi in range(tau_s, t_max + 1):
                expected = list(
                    reachable_edges(
                        network, "n0", previous_hi + 1, hi, arrival=arrival
                    )
                )
                got = list(skeleton.included_between(tau_s, previous_hi + 1, hi))
                assert got == expected
                previous_hi = hi

    def test_same_stamp_chain_emits_in_column_order(self):
        # a -> b is inserted before s -> a at the same stamp: the fixpoint
        # includes it in its second round, but both emit column order.
        network = TemporalFlowNetwork()
        network.add_edge(TemporalEdge("a", "b", 3, 2.0))
        network.add_edge(TemporalEdge("s", "a", 3, 4.0))
        network.add_edge(TemporalEdge("b", "t", 4, 1.0))
        skeleton = WindowSkeleton(network, "s")
        expected = [("a", "b", 3, 2.0), ("s", "a", 3, 4.0)]
        assert reachable_edges(network, "s", 3, 3) == expected
        assert skeleton.included_between(3, 3, 3) == expected

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", ["descending", "random"])
    def test_any_start_order_matches_reachable_edges(self, seed, order):
        # A start below every earlier one resets the column's floor.  One
        # skeleton serves every sink: the windows interleave sinks, so a
        # reset can follow memos another sink's windows extended.
        network = random_network(seed)
        skeleton = WindowSkeleton(network, "n0")
        t_min, t_max = network.t_min, network.t_max
        windows = [
            (tau_s, tau_e, sink)
            for tau_s in range(t_min, t_max + 1)
            for tau_e in range(tau_s, t_max + 1)
            for sink in sorted(network.nodes)
            if sink != "n0"
        ]
        if order == "descending":
            windows.sort(key=lambda window: (-window[0], window[1]))
        else:
            random.Random(seed).shuffle(windows)
        for tau_s, tau_e, sink in windows:
            expected = reachable_edges(network, "n0", tau_s, tau_e)
            assert skeleton.included_between(tau_s, tau_s, tau_e) == expected
            lo = (tau_s + tau_e) // 2
            assert skeleton.included_between(tau_s, lo, tau_e) == [
                edge for edge in expected if edge[2] >= lo
            ]
            assert skeleton.reaches_sink(tau_s, tau_e, sink) == any(
                v == sink for _u, v, _tau, _cap in expected
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_reaches_sink_matches_included_sink_edges(self, seed):
        network = random_network(seed, edges=12)
        skeleton = WindowSkeleton(network, "n0")
        t_min, t_max = network.t_min, network.t_max
        windows = [
            (tau_s, tau_e, "n1")
            for tau_s in range(t_max, t_min - 1, -1)
            for tau_e in range(tau_s + 1, t_max + 1)
        ]
        # Then every sink on the same skeleton, starts shuffled and
        # interleaved across sinks.
        shuffled = [
            (tau_s, tau_e, sink)
            for tau_s in range(t_min, t_max + 1)
            for tau_e in range(tau_s + 1, t_max + 1)
            for sink in sorted(network.nodes)
            if sink != "n0"
        ]
        random.Random(seed).shuffle(shuffled)
        for tau_s, tau_e, sink in windows + shuffled:
            reaches = any(
                v == sink
                for _u, v, _tau, _cap in reachable_edges(
                    network, "n0", tau_s, tau_e
                )
            )
            assert skeleton.reaches_sink(tau_s, tau_e, sink) == reaches
            if not reaches:
                _state, value = solve_fresh(
                    skeleton, sink, tau_s, tau_e, QueryStats()
                )
                assert value == 0.0

    def test_epoch_guard_fires_after_mutation(self):
        network = random_network(1)
        skeleton = WindowSkeleton(network, "n0")
        IncrementalTransformedNetwork(
            network, "n0", "n1", network.t_min, network.t_max, skeleton=skeleton
        )
        network.add_edge(TemporalEdge("n0", "n1", network.t_max, 1.0))
        with pytest.raises(GraphError, match="mutated after skeleton compile"):
            IncrementalTransformedNetwork(
                network, "n0", "n1", network.t_min, network.t_max,
                skeleton=skeleton,
            )

    def test_stale_skeleton_keeps_its_columns(self):
        network = random_network(2)
        skeleton = WindowSkeleton(network, "n0")
        columns = (skeleton._eu, skeleton._ev, skeleton._etau, skeleton._ecap)
        frozen = tuple(list(column) for column in columns)
        network.add_edge(TemporalEdge("n1", "n0", network.t_max + 1, 1.0))
        network.add_edge(TemporalEdge("n0", "n1", network.t_min, 1.0))
        fresh = WindowSkeleton(network, "n0")
        assert len(fresh._etau) == len(frozen[2]) + 2
        assert (skeleton._eu, skeleton._ev, skeleton._etau, skeleton._ecap) == frozen
        with pytest.raises(GraphError, match="mutated after skeleton compile"):
            skeleton.included_between(network.t_min, network.t_min, network.t_max)


class TestAlgorithmEquality:
    """End-to-end: every algorithm agrees with the object-graph reference."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("algorithm", [bfq, bfq_plus, bfq_star])
    def test_skeleton_matches_object(self, seed, algorithm):
        network = random_network(seed, edges=25)
        query = BurstingFlowQuery("n0", "n1", 2)
        with_skeleton = algorithm(network, query)
        with_object = object_bfq(network, query)
        assert abs(with_skeleton.density - with_object.density) < TOLERANCE
        assert with_skeleton.interval == with_object.interval
        assert abs(with_skeleton.flow_value - with_object.value) < TOLERANCE

    @pytest.mark.parametrize("seed", range(5))
    def test_skeleton_without_pruning_matches(self, seed):
        network = random_network(seed + 100)
        query = BurstingFlowQuery("n0", "n1", 3)
        pruned = bfq_plus_direct(network, query)
        unpruned = bfq_plus_direct(network, query, use_pruning=False)
        assert abs(pruned.density - unpruned.density) < TOLERANCE
        assert pruned.interval == unpruned.interval

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=4),
    )
    def test_property_skeleton_matches_object(self, seed, delta):
        network = random_network(seed, nodes=5, edges=16, horizon=8)
        query = BurstingFlowQuery("n0", "n1", delta)
        with_object = object_bfq(network, query)
        for algorithm in (bfq, bfq_plus, bfq_star):
            with_skeleton = algorithm(network, query)
            assert abs(with_skeleton.density - with_object.density) < TOLERANCE
            assert with_skeleton.interval == with_object.interval


class TestEngineDispatch:
    @pytest.mark.parametrize("algorithm", ["bfq", "bfq+", "bfq*", "naive"])
    @pytest.mark.parametrize(
        "option", ["kernel", "transform", "parallel_windows"]
    )
    def test_engine_takes_no_kernel_or_transform(
        self, burst_network, algorithm, option
    ):
        with pytest.raises(TypeError, match=option):
            find_bursting_flow(
                burst_network,
                BurstingFlowQuery("s", "t", 2),
                algorithm=algorithm,
                **{option: "object"},
            )
