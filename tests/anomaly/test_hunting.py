"""Tests for suspect-free burst hunting."""

import pytest

from repro.anomaly.hunting import NodeBurstScore, hunt_bursts, score_nodes
from repro.cli import main
from repro.exceptions import InvalidQueryError
from repro.datasets import uniform_network, planted_burst
from repro.temporal import TemporalFlowNetwork, save_edge_list


@pytest.fixture
def haystack() -> tuple[TemporalFlowNetwork, object]:
    """Background noise plus one planted burst."""
    network = uniform_network(40, 250, 400, seed=5, capacity_range=(1.0, 20.0))
    truth = planted_burst(
        network, "n0", "n1", seed=6, interval=(200, 215),
        volume=50_000.0, hops=3, num_mule_chains=2,
    )
    return network, truth


class TestScoring:
    def test_concentrated_emitter_ranks_first(self, haystack):
        network, truth = haystack
        scores = score_nodes(network, window=15, direction="out")
        assert scores[0].node == truth.source
        assert scores[0].concentration > 0.9

    def test_concentrated_collector_ranks_first(self, haystack):
        network, truth = haystack
        scores = score_nodes(network, window=15, direction="in")
        assert scores[0].node == truth.sink

    def test_steady_nodes_score_low(self):
        # One transfer per tick: no window concentrates the volume.
        network = TemporalFlowNetwork.from_tuples(
            [("steady", f"m{i}", i + 1, 10.0) for i in range(100)]
        )
        (score,) = score_nodes(network, window=5, direction="out")
        assert score.concentration < 0.1

    def test_min_volume_filter(self, haystack):
        network, truth = haystack
        scores = score_nodes(
            network, window=15, direction="out", min_volume=10_000.0
        )
        assert all(s.total_volume >= 10_000.0 for s in scores)
        assert scores  # the planted source passes

    def test_parameter_validation(self, haystack):
        network, _ = haystack
        with pytest.raises(InvalidQueryError):
            score_nodes(network, window=0)
        with pytest.raises(InvalidQueryError):
            score_nodes(network, window=3, direction="sideways")

    def test_score_properties(self):
        score = NodeBurstScore("x", total_volume=100.0, peak_volume=80.0,
                               peak_window=(3, 8))
        assert score.concentration == pytest.approx(0.8)
        assert score.score == pytest.approx(64.0)
        empty = NodeBurstScore("y", 0.0, 0.0, (0, 5))
        assert empty.concentration == 0.0


class TestHunting:
    def test_funnel_finds_the_planted_burst(self, haystack):
        network, truth = haystack
        report = hunt_bursts(network, delta=15, top_sources=4, top_sinks=4)
        assert report.findings
        top = report.top(1)[0]
        assert (top.source, top.sink) == (truth.source, truth.sink)
        assert top.density >= truth.density * 0.9

    def test_funnel_is_heuristic_and_can_miss(self):
        """A burst whose endpoints look individually calm slips through
        the screen — documented behaviour, not a bug."""
        # The source also drips volume all day, diluting its concentration
        # below many noisy nodes'.
        network = uniform_network(30, 400, 400, seed=8, capacity_range=(50.0, 90.0))
        planted_burst(
            network, "n0", "n1", seed=9, interval=(100, 140),
            volume=120.0, hops=3, num_mule_chains=1,
        )
        report = hunt_bursts(network, delta=10, top_sources=2, top_sinks=2)
        pairs = {(f.source, f.sink) for f in report.findings}
        assert ("n0", "n1") not in pairs  # screened out by design

    @pytest.mark.parametrize("screen", [{"top_sources": 0}, {"top_sinks": 0}])
    def test_empty_screen_is_rejected(self, haystack, screen):
        network, _ = haystack
        with pytest.raises(InvalidQueryError):
            hunt_bursts(network, delta=15, **screen)

    def test_cli_empty_screen_exits_2(self, haystack, tmp_path, capsys):
        network, _ = haystack
        path = tmp_path / "edges.csv"
        save_edge_list(network, path)
        code = main(["hunt", str(path), "--delta", "15", "--top-sources", "0"])
        assert code == 2
        assert "top_sources/top_sinks must be >= 1" in capsys.readouterr().err
