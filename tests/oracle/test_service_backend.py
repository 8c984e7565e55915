"""Tests for the ``service`` differential backend.

The backend exercises the full serve path — serialize to wire bytes,
cache, worker, deserialize — and must agree byte-for-byte with the
in-process engines (it wraps BFQ*, so its interval is canonical).
"""

import pytest

from repro import BurstingFlowQuery, find_bursting_flow
from repro.oracle.runner import BACKENDS, PLAN_BACKENDS, run_differential
from repro.service.backend import ServiceBackendError, service_bfq
from repro.temporal import TemporalFlowNetwork

EDGES = (
    ("s", "a", 1, 3.0),
    ("a", "t", 2, 2.0),
    ("s", "b", 2, 4.0),
    ("b", "t", 3, 4.0),
    ("a", "t", 5, 5.0),
)


def _network() -> TemporalFlowNetwork:
    return TemporalFlowNetwork.from_tuples(EDGES)


class TestServiceBackendRegistration:
    def test_registered_in_backends(self):
        assert "service" in BACKENDS
        assert BACKENDS["service"] is service_bfq

    def test_in_plan_backends(self):
        # The service wraps BFQ*, so its interval tie-breaks are the
        # canonical plan and must agree byte-identically.
        assert "service" in PLAN_BACKENDS


class TestServiceBackendAnswers:
    def test_matches_in_process_engine_exactly(self):
        network = _network()
        query = BurstingFlowQuery("s", "t", 1)
        served = service_bfq(network, query)
        fresh = find_bursting_flow(network, query, algorithm="bfq*")
        assert served.density == fresh.density  # exact, not approx:
        assert served.interval == fresh.interval  # JSON round-trips repr
        assert served.flow_value == fresh.flow_value

    def test_no_flow_case(self):
        network = _network()
        served = service_bfq(network, BurstingFlowQuery("t", "s", 1))
        assert not served.found
        assert served.interval is None

    def test_source_network_is_not_mutated(self):
        network = _network()
        epoch_before = network.epoch
        service_bfq(network, BurstingFlowQuery("s", "t", 1))
        assert network.epoch == epoch_before
        assert network.num_edges == len(EDGES)

    def test_invalid_query_surfaces_as_backend_error(self):
        network = _network()
        with pytest.raises(ServiceBackendError):
            service_bfq(network, BurstingFlowQuery("nobody", "t", 1))


class TestServiceInDifferentialRunner:
    def test_agreement_including_service(self):
        from repro.oracle.cases import FuzzCase

        case = FuzzCase(edges=EDGES, source="s", sink="t", delta=1)
        outcome = run_differential(
            case, backends=("bfq", "bfq*", "naive", "service")
        )
        assert outcome.ok, outcome.describe()
        assert set(outcome.records) >= {"bfq*", "service"}
        assert (
            outcome.records["service"].interval
            == outcome.records["bfq*"].interval
        )
