"""Tests for the case-study burst detector."""

import pytest

from repro.anomaly import BurstDetector, ScanFinding
from repro.core import BurstingFlowQuery, find_bursting_flow
from repro.datasets import make_case_study, uniform_network, planted_burst
from repro.exceptions import InvalidQueryError
from repro.temporal import TemporalFlowNetwork


@pytest.fixture(scope="module")
def case_study():
    dataset = make_case_study(scale=0.25)
    horizon = dataset.network.num_timestamps
    deltas = [max(1, round(horizon * f)) for f in (0.03, 0.06, 0.09)]
    detector = BurstDetector(dataset.network)
    report = detector.scan(
        dataset.suspicious_sources + dataset.benign_sources[:2],
        dataset.suspicious_sinks + dataset.benign_sinks[:2],
        deltas,
    )
    return dataset, deltas, report


class TestScan:
    def test_all_combinations_scanned(self, case_study):
        dataset, deltas, report = case_study
        sources = 1 + 2
        sinks = 1 + 2
        assert len(report.findings) == sources * sinks * len(deltas)

    def test_planted_burst_flagged_first(self, case_study):
        dataset, _, report = case_study
        assert report.flagged
        top = report.flagged[0]
        assert top.source == dataset.suspicious_sources[0]
        assert top.sink == dataset.suspicious_sinks[0]

    def test_benign_slow_flow_not_flagged(self, case_study):
        dataset, _, report = case_study
        benign_pair = (dataset.benign_sources[0], dataset.benign_sinks[0])
        for finding in report.flagged:
            assert (finding.source, finding.sink) != benign_pair

    def test_density_antitone_in_delta_for_suspects(self, case_study):
        dataset, deltas, report = case_study
        densities = [
            report.finding_for(
                dataset.suspicious_sources[0], dataset.suspicious_sinks[0], d
            ).density
            for d in deltas
        ]
        assert densities == sorted(densities, reverse=True)

    def test_top_ranking(self, case_study):
        _, __, report = case_study
        top = report.top(3)
        assert len(top) == 3
        assert top[0].density >= top[1].density >= top[2].density

    def test_finding_for_missing_returns_none(self, case_study):
        _, __, report = case_study
        assert report.finding_for("ghost", "ghost2", 1) is None


class TestDetectorEdgeCases:
    def test_same_node_pairs_skipped(self):
        network = TemporalFlowNetwork.from_tuples(
            [("a", "b", 1, 1.0), ("b", "c", 2, 1.0), ("c", "d", 3, 1.0)]
        )
        detector = BurstDetector(network)
        report = detector.scan(["a"], ["a"], [1])
        assert report.findings == []

    def test_unknown_nodes_skipped(self):
        network = TemporalFlowNetwork.from_tuples([("a", "b", 1, 1.0), ("b", "c", 2, 1.0)])
        detector = BurstDetector(network)
        report = detector.scan(["a", "ghost"], ["c"], [1])
        assert len(report.findings) == 1

    def test_too_few_positives_flags_nothing(self):
        network = TemporalFlowNetwork.from_tuples(
            [("a", "b", 1, 5.0), ("b", "c", 2, 5.0)]
        )
        detector = BurstDetector(network)
        report = detector.scan(["a"], ["c"], [1])
        assert report.flagged == []

    def test_bad_interval_fraction_rejected(self):
        network = TemporalFlowNetwork.from_tuples([("a", "b", 1, 1.0)])
        with pytest.raises(InvalidQueryError):
            BurstDetector(network, max_interval_fraction=0.0)

    def test_long_interval_outliers_not_flagged(self):
        """A huge but slow flow must not be flagged even if it is a
        density outlier relative to tiny background flows."""
        network = uniform_network(40, 120, 300, seed=2, capacity_range=(1.0, 2.0))
        planted_burst(
            network, "n0", "n1", seed=3, interval=(10, 290), volume=100000.0
        )
        detector = BurstDetector(network, max_interval_fraction=0.2)
        report = detector.scan(["n0"], ["n1"], [3])
        assert report.flagged == []


class TestScanMatchesIndependentQueries:
    def test_findings_equal_per_query_bfq(self, burst_network):
        deltas = [1, 2, 3, 6, 12]
        sources, sinks = ["s", "a", "b"], ["t", "a", "c"]
        report = BurstDetector(burst_network).scan(sources, sinks, deltas)
        expected = []
        for source in sources:
            for sink in sinks:
                if source == sink:
                    continue
                for delta in deltas:
                    result = find_bursting_flow(
                        burst_network,
                        BurstingFlowQuery(source, sink, delta),
                        algorithm="bfq",
                    )
                    expected.append(
                        ScanFinding(
                            source, sink, delta, result.density,
                            result.interval, result.flow_value,
                        )
                    )
        assert report.findings == expected
        assert any(finding.density > 0 for finding in report.findings)


class TestScanFinding:
    def test_interval_length(self):
        finding = ScanFinding("a", "b", 1, 2.0, (3, 9), 12.0)
        assert finding.interval_length == 6
        empty = ScanFinding("a", "b", 1, 0.0, None, 0.0)
        assert empty.interval_length is None
