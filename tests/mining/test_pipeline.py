"""End-to-end pipeline tests: funnel recall, dedupe, restart stability.

The full contract in one place: a scan over the planted-laundering
network must find the planted burst (recall), confirm it with answers
byte-identical to the direct engine (differential), persist it under a
content-derived id, and derive the *same* id on any re-scan — including
one from a process that recovered the store from disk.
"""

import pytest

from repro import BurstingFlowQuery, find_bursting_flow
from repro.exceptions import InvalidQueryError
from repro.mining import (
    MiningBackendError,
    MiningConfig,
    MiningPipeline,
    PatternStore,
    mining_bfq,
    node_ledgers,
)
from repro.temporal import TemporalEdge, TemporalFlowNetwork

from tests.mining.conftest import PLANTED_PAIRS, PLANTED_WINDOW


@pytest.fixture
def store(tmp_path):
    with PatternStore(tmp_path / "patterns") as store:
        yield store


class TestScanRecall:
    def test_planted_burst_is_found_and_persisted(
        self, planted_network, store
    ):
        pipeline = MiningPipeline(planted_network, store)
        outcome = pipeline.scan(4)
        persisted = {(r.source, r.sink) for r in outcome.records}
        assert persisted == set(PLANTED_PAIRS)
        assert outcome.deduped == 0
        assert len(outcome.new_ids) == len(PLANTED_PAIRS)
        for record in outcome.records:
            assert record.interval == PLANTED_WINDOW
            assert record.z_score >= 3.5
            assert record.detection_method == "mining_funnel"
            assert record.evidence  # flagged patterns carry their proof

    def test_confirmation_matches_the_direct_engine(
        self, planted_network, store
    ):
        pipeline = MiningPipeline(planted_network, store)
        outcome = pipeline.scan(4)
        for record in outcome.records:
            direct = find_bursting_flow(
                planted_network,
                BurstingFlowQuery(record.source, record.sink, record.delta),
            )
            assert record.density == direct.density
            assert record.interval == direct.interval
            assert record.flow_value == direct.flow_value

    def test_funnel_beats_the_exhaustive_sweep(self, planted_network, store):
        config = MiningConfig(top_sources=4, top_sinks=4)
        pipeline = MiningPipeline(planted_network, store, config=config)
        outcome = pipeline.scan(4)
        funnel = outcome.funnel
        assert funnel.solves == funnel.candidates > 0
        assert funnel.exhaustive_pairs > funnel.solves
        assert funnel.amortization >= 5.0
        # Note: with so few confirmed entries the planted bursts ARE the
        # batch median and nothing flags — the robust-z rule needs a
        # benign majority, which the default-width scan above provides.

    def test_source_concentration_is_recorded(self, planted_network, store):
        pipeline = MiningPipeline(planted_network, store)
        outcome = pipeline.scan(4)
        by_pair = {(r.source, r.sink): r for r in outcome.records}
        planted = by_pair[("s_star", "t_star")]
        assert planted.source_concentration == pytest.approx(1.0)
        assert planted.sink_concentration == pytest.approx(1.0)


class TestStableIds:
    def test_rescan_dedupes_to_the_same_ids(self, planted_network, store):
        pipeline = MiningPipeline(planted_network, store)
        first = pipeline.scan(4)
        second = pipeline.scan(4)
        assert second.new_ids == []
        assert second.deduped == len(first.new_ids)
        assert {r.pattern_id for r in second.records} == set(first.new_ids)

    def test_restart_rescan_derives_identical_ids(
        self, planted_network, tmp_path
    ):
        directory = tmp_path / "patterns"
        with PatternStore(directory) as store:
            first = MiningPipeline(planted_network, store).scan(4)
        # "Restart": a brand-new store + pipeline over the same history.
        with PatternStore(directory) as recovered:
            assert recovered.ids() == set(first.new_ids)
            again = MiningPipeline(planted_network, recovered).scan(4)
            assert again.new_ids == []
            assert again.deduped == len(first.new_ids)
            assert recovered.ids() == set(first.new_ids)

    def test_new_epochs_do_not_perturb_old_ids(self, planted_network, store):
        pipeline = MiningPipeline(planted_network, store)
        first = pipeline.scan(4)
        # Benign traffic arrives; old patterns must keep their identity.
        for i in range(4):
            planted_network.add_edge(TemporalEdge(f"w{i}", f"x{i}", 30 + i, 1.0))
        second = pipeline.scan(4)
        assert set(first.new_ids) <= store.ids()
        assert {r.pattern_id for r in second.records} == set(first.new_ids)


def grouped_ledgers(network):
    """A per-node grouping of ``network.edges()``, each ledger sorted."""
    out_ledgers, in_ledgers = {}, {}
    for edge in network.edges():
        out_ledgers.setdefault(edge.u, []).append((edge.tau, edge.capacity))
        in_ledgers.setdefault(edge.v, []).append((edge.tau, edge.capacity))
    for ledgers in (out_ledgers, in_ledgers):
        for entries in ledgers.values():
            entries.sort()
    return out_ledgers, in_ledgers


class TestLedgerSync:
    """The funnel's ledgers are derived from the network's edges at the
    current epoch, whatever moved it."""

    def assert_ledgers_match(self, network):
        out_ledgers, in_ledgers = node_ledgers(network)
        for ledgers in (out_ledgers, in_ledgers):
            for entries in ledgers.values():
                entries.sort()
        assert (out_ledgers, in_ledgers) == grouped_ledgers(network)

    def network(self):
        network = TemporalFlowNetwork()
        network.add_edge(TemporalEdge("a", "b", 1, 2.0))
        network.add_edge(TemporalEdge("b", "c", 2, 3.0))
        return network

    def test_pure_appends_are_reflected(self):
        network = self.network()
        self.assert_ledgers_match(network)
        network.add_edge(TemporalEdge("a", "c", 3, 1.0))
        self.assert_ledgers_match(network)
        assert node_ledgers(network)[1]["c"] == [(2, 3.0), (3, 1.0)]

    def test_capacity_merge_is_reflected(self):
        network = self.network()
        network.add_edge(TemporalEdge("a", "b", 1, 5.0))
        self.assert_ledgers_match(network)
        # The network stores one merged edge, so the ledger does too.
        assert node_ledgers(network)[0]["a"] == [(1, 7.0)]

    def test_bare_add_node_gets_no_ledger(self):
        network = self.network()
        network.add_node("lonely")
        network.add_edge(TemporalEdge("b", "d", 4, 4.0))
        self.assert_ledgers_match(network)
        out_ledgers, in_ledgers = node_ledgers(network)
        assert "lonely" not in out_ledgers and "lonely" not in in_ledgers

    def test_adopted_epoch_is_reflected(self, store):
        network = self.network()
        pipeline = MiningPipeline(network, store)
        pipeline.sync()
        network.adopt_epoch(network.epoch + 10)
        self.assert_ledgers_match(network)
        assert pipeline.sync() == grouped_ledgers(network)

    def test_sync_rederives_only_when_the_epoch_moves(
        self, planted_network, store
    ):
        pipeline = MiningPipeline(planted_network, store)
        first_out, _ = pipeline.sync()
        assert pipeline.sync()[0] is first_out  # same epoch: kept
        planted_network.add_edge(TemporalEdge("n1", "n2", 50, 2.0))
        out_ledgers, in_ledgers = pipeline.sync()
        assert out_ledgers is not first_out
        assert out_ledgers["n1"] == [(50, 2.0)]
        assert in_ledgers["n2"] == [(50, 2.0)]

    def test_scan_sees_a_foreign_append(self, planted_network, store):
        pipeline = MiningPipeline(planted_network, store)
        pipeline.scan(4)
        # An append made by someone else (the service path) on the shared
        # network is seen by the next scan.
        for tau in range(30, 34):
            planted_network.add_edge(TemporalEdge("fresh", "t_star", tau, 90.0))
        outcome = pipeline.scan(4, persist="all")
        assert outcome.epoch == planted_network.epoch
        assert "fresh" in pipeline.sync()[0]
        assert ("fresh", "t_star") in {
            (r.source, r.sink) for r in outcome.records
        }


class TestScanModes:
    def test_explicit_pairs_skip_the_prefilter(self, planted_network, store):
        pipeline = MiningPipeline(planted_network, store)
        outcome = pipeline.scan(
            4,
            pairs=[("s_star", "t_star"), ("s_star", "s_star"),
                   ("ghost", "t_star")],
            persist="all",
        )
        # Self-pairs and unknown endpoints are skipped silently.
        assert outcome.funnel.candidates == 1
        assert [(r.source, r.sink) for r in outcome.records] == [
            ("s_star", "t_star")
        ]

    def test_persist_all_stores_every_positive(self, planted_network, store):
        pipeline = MiningPipeline(planted_network, store)
        outcome = pipeline.scan(4, persist="all")
        assert len(outcome.records) == outcome.funnel.confirmed
        assert len(outcome.records) > len(PLANTED_PAIRS)

    def test_top_override_narrows_the_candidate_set(
        self, planted_network, store
    ):
        pipeline = MiningPipeline(planted_network, store)
        narrow = pipeline.scan(4, top=2)
        assert narrow.funnel.candidates <= 2 * 2

    def test_validation(self, planted_network, store):
        pipeline = MiningPipeline(planted_network, store)
        with pytest.raises(InvalidQueryError):
            pipeline.scan(0)
        with pytest.raises(InvalidQueryError):
            pipeline.scan(4, persist="sometimes")

    def test_empty_candidate_set_is_a_clean_noop(self, store):
        network = TemporalFlowNetwork.from_tuples([("a", "b", 1, 1.0)])
        pipeline = MiningPipeline(network, store)
        outcome = pipeline.scan(4, pairs=[("ghost", "phantom")])
        assert outcome.records == [] and outcome.funnel.solves == 0


class TestMiningBackend:
    """The oracle's differential backend: persisted == direct, exactly."""

    def test_round_trip_equals_direct_solve(self, planted_network):
        query = BurstingFlowQuery("s_star", "t_star", 4)
        via_store = mining_bfq(planted_network, query)
        direct = find_bursting_flow(planted_network, query)
        assert via_store.density == direct.density
        assert via_store.interval == direct.interval
        assert via_store.flow_value == direct.flow_value

    def test_no_flow_round_trips_as_empty(self):
        network = TemporalFlowNetwork.from_tuples(
            [("b", "a", 1, 2.0)]  # only the wrong direction exists
        )
        result = mining_bfq(network, BurstingFlowQuery("a", "b", 1))
        assert result.density == 0.0 and result.interval is None

    def test_duplicate_records_are_a_hard_failure(
        self, planted_network, monkeypatch
    ):
        # Simulate a broken identity derivation: evidence that differs
        # between scans yields two ids for one pattern, which the
        # double-scan round trip must refuse to bless.
        from repro.mining import pipeline as pipeline_mod
        from repro.mining.store import canonical_evidence as real_evidence

        calls = {"n": 0}

        def flaky_evidence(network, source, sink, interval):
            calls["n"] += 1
            evidence = real_evidence(network, source, sink, interval)
            if calls["n"] > 1:  # second scan "sees" an extra edge
                evidence = evidence + (("phantom", "edge", 0, 1.0),)
            return evidence

        monkeypatch.setattr(
            pipeline_mod, "canonical_evidence", flaky_evidence
        )
        with pytest.raises(MiningBackendError):
            mining_bfq(planted_network, BurstingFlowQuery("s_star", "mid", 4))
