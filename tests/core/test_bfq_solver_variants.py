"""BFQ's windows re-solved with every registered Maxflow solver.

Section 3.1: "other augmenting path-based Maxflow algorithms can be also
applied in our solutions".  BFQ solves each Lemma-2 candidate window from
scratch, so *any* solver can stand in for its kernel there — including
the non-resumable ones.  This suite pins that interchangeability window
by window: every solver, run on the from-scratch
:func:`build_transformed_network` of BFQ's reported interval and of
every candidate window, finds exactly the Maxflow BFQ recorded.
"""

import pytest

from repro import BurstingFlowQuery, bfq
from repro.core import build_transformed_network
from repro.flownet import SOLVERS


def maxflow(network, source, sink, tau_s, tau_e, solver_name):
    transformed = build_transformed_network(network, source, sink, tau_s, tau_e)
    run = SOLVERS[solver_name](
        transformed.flow_network, transformed.source_index, transformed.sink_index
    )
    return run.value


def assert_windows_agree(network, query, solver_name):
    """Re-solve BFQ's reported interval and every candidate window."""
    result = bfq(network, query)
    source, sink = query.source, query.sink
    if result.found:
        assert maxflow(
            network, source, sink, *result.interval, solver_name
        ) == pytest.approx(result.flow_value), solver_name
    assert len(result.stats.samples) == result.stats.candidates_enumerated
    for sample in result.stats.samples:
        assert maxflow(
            network, source, sink, *sample.interval, solver_name
        ) == pytest.approx(sample.flow_value), (solver_name, sample.interval)
    return result


@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
class TestBfqAcrossSolvers:
    def test_burst_network(self, solver_name, burst_network):
        result = assert_windows_agree(
            burst_network, BurstingFlowQuery("s", "t", 2), solver_name
        )
        assert result.density == pytest.approx(300.0), solver_name
        assert result.interval == (10, 13)

    def test_chain_network(self, solver_name, chain_network):
        result = assert_windows_agree(
            chain_network, BurstingFlowQuery("s", "t", 1), solver_name
        )
        assert result.density == pytest.approx(2.5), solver_name

    def test_no_flow(self, solver_name):
        from repro.temporal import TemporalFlowNetwork

        network = TemporalFlowNetwork.from_tuples(
            [("s", "a", 5, 1.0), ("a", "t", 2, 1.0)]
        )
        result = assert_windows_agree(
            network, BurstingFlowQuery("s", "t", 1), solver_name
        )
        assert not result.found, solver_name


def test_random_networks_agree_across_solvers():
    from tests.conftest import random_temporal_network

    checked = 0
    for seed in range(8):
        network = random_temporal_network(seed, max_nodes=6, max_time=8)
        if "n0" not in network or "n1" not in network:
            continue
        query = BurstingFlowQuery("n0", "n1", 1)
        for name in SOLVERS:
            checked += len(assert_windows_agree(network, query, name).stats.samples)
    assert checked > 0
