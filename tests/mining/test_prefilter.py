"""Pre-filter tests: the planted hit, the documented miss, determinism."""

import pytest

from repro import BurstingFlowQuery, find_bursting_flow
from repro.datasets import make_dataset
from repro.exceptions import InvalidQueryError
from repro.mining import MiningConfig, MiningPipeline, PatternStore
from repro.mining import prefilter
from repro.mining.prefilter import (
    node_intensities,
    node_ledgers,
    rank_candidates,
    score_nodes,
)
from repro.temporal import TemporalEdge, TemporalFlowNetwork

from tests.mining.conftest import PLANTED_WINDOW, planted_edges


def synced_ranking(network, **kwargs):
    """Rank on ledgers derived once from ``network``."""
    return rank_candidates(*node_ledgers(network), **kwargs)


class TestScoreNodes:
    def test_planted_source_ranks_first(self, planted_network):
        scores = score_nodes(planted_network, window=4, direction="out")
        assert scores[0].node in ("s_star", "mid")
        top = scores[0]
        lo, hi = top.peak_window
        assert lo >= PLANTED_WINDOW[0] and lo <= PLANTED_WINDOW[1]
        assert top.concentration == pytest.approx(1.0)

    def test_min_volume_screens_small_nodes(self, planted_network):
        scores = score_nodes(
            planted_network, window=4, direction="out", min_volume=50.0
        )
        assert {s.node for s in scores} == {"s_star", "mid"}

    def test_validation(self, planted_network):
        with pytest.raises(InvalidQueryError):
            score_nodes(planted_network, window=0)
        with pytest.raises(InvalidQueryError):
            score_nodes(planted_network, window=4, direction="sideways")


class TestRankCandidates:
    def test_planted_pairs_rank_at_the_top(self, planted_network):
        candidates = synced_ranking(
            planted_network, window=4, top_sources=6, top_sinks=6
        )
        pairs = [c.pair for c in candidates]
        assert pairs[0] in (("s_star", "t_star"), ("s_star", "mid"),
                            ("mid", "t_star"))
        for planted in (("s_star", "mid"), ("mid", "t_star"),
                        ("s_star", "t_star")):
            assert planted in pairs

    def test_overlap_doubles_the_rank_score(self, planted_network):
        candidates = synced_ranking(
            planted_network, window=4, top_sources=6, top_sinks=6
        )
        by_pair = {c.pair: c for c in candidates}
        planted = by_pair[("s_star", "t_star")]
        assert planted.windows_overlap
        assert planted.rank_score == pytest.approx(
            planted.source_intensity.intensity
            * planted.sink_intensity.intensity
            * 2.0
        )

    def test_matches_rank_on_synced_stats(self, planted_network, tmp_path):
        # Ledgers a pipeline re-syncs across appends rank exactly like
        # ledgers derived once from the whole history.
        edges = planted_edges()
        half = len(edges) // 2
        growing = TemporalFlowNetwork.from_tuples(edges[:half])
        with PatternStore(tmp_path / "patterns") as store:
            pipeline = MiningPipeline(growing, store)
            early = pipeline.sync()
            for edge in edges[half:]:
                growing.add_edge(TemporalEdge(*edge))
            synced = pipeline.sync()
        assert synced[0] is not early[0]  # re-derived at the new epoch
        maintained = rank_candidates(
            *synced, window=4, top_sources=5, top_sinks=5
        )
        oneshot = synced_ranking(
            planted_network, window=4, top_sources=5, top_sinks=5
        )
        assert [c.pair for c in maintained] == [c.pair for c in oneshot]
        assert [c.rank_score for c in maintained] == [
            c.rank_score for c in oneshot
        ]

    def test_validation(self, planted_network):
        with pytest.raises(InvalidQueryError):
            rank_candidates(
                *node_ledgers(planted_network), window=4, top_sources=0
            )


class TestKnownMiss:
    """The funnel's inherited blind spot, pinned as a test.

    A multi-hop launderer whose endpoints look individually calm: the
    source drips small amounts across the whole horizon, mules forward
    to the sink also spread out.  A real (low-density) delta-BFlow
    exists, but neither endpoint's ledger is concentrated, so the pair
    never enters the candidate set while concentrated benign emitters
    fill the top slots.
    """

    def build(self) -> TemporalFlowNetwork:
        edges = []
        # Concentrated benign actors that soak up the top-k slots.
        for i in range(4):
            for t in (10, 11, 12):
                edges.append((f"burster{i}", f"seller{i}", t, 30.0))
        # Calm laundering: drip out of `quiet_s`, drip into `quiet_t`.
        for t in range(0, 40, 2):
            mule = f"mule{t % 8}"
            edges.append(("quiet_s", mule, t, 1.0))
            edges.append((mule, "quiet_t", t + 1, 1.0))
        return TemporalFlowNetwork.from_tuples(edges)

    def test_calm_endpoints_never_rank_despite_real_flow(self):
        network = self.build()
        result = find_bursting_flow(
            network, BurstingFlowQuery("quiet_s", "quiet_t", 4)
        )
        assert result.density > 0  # the flow is real...
        candidates = synced_ranking(
            network, window=3, top_sources=4, top_sinks=4
        )
        pairs = [c.pair for c in candidates]
        assert ("quiet_s", "quiet_t") not in pairs  # ...but never ranked


class TestNodeIntensities:
    def test_planted_node_outranks_the_background(self, planted_network):
        out_ledgers, _ = node_ledgers(planted_network)
        profiles = node_intensities(out_ledgers, window=4)
        by_node = {p.node: p for p in profiles}
        planted = by_node["s_star"]
        benign = by_node["u0"]
        # The ranking key is what feeds the funnel: the planted emitter
        # must dwarf every background chain.
        assert planted.intensity > 100 * benign.intensity
        assert profiles[0].node in ("s_star", "mid")
        # Background drips are flat: no burst bins.
        assert benign.burstiness == pytest.approx(0.0)

    def test_spike_and_silence_shell_scores_high_z_and_burstiness(self):
        """The burstiness term needs a quiet baseline to deviate from.

        A shell that drips pennies all month and then blasts is the
        smurfing signature; its burst bins stand out against its *own*
        arrival counts (unlike ``s_star`` above, whose entire ledger IS
        the burst, so its own baseline is the burst too).
        """
        edges = [("shell", f"m{t % 3}", t, 0.5) for t in range(0, 40, 4)]
        # Smurfing: many small transfers, sustained over a few ticks —
        # the count-based automaton needs sustained elevation, not one
        # big transfer.
        edges += [
            ("shell", f"fence{i}", t, 15.0)
            for t in (20, 21, 22, 23)
            for i in range(3)
        ]
        network = TemporalFlowNetwork.from_tuples(edges)
        out_ledgers, _ = node_ledgers(network)
        profiles = node_intensities(out_ledgers, window=4)
        shell = next(p for p in profiles if p.node == "shell")
        assert shell.burstiness > 0.5
        lo, hi = shell.peak_window
        assert lo >= 19 and hi <= 24


def full_decode_ranking(monkeypatch, out_ledgers, in_ledgers, **kwargs):
    """``rank_candidates`` with every node decoded before the top-k cut."""
    def full(ledgers, *, window, min_volume, count):
        return node_intensities(
            ledgers, window=window, min_volume=min_volume
        )[:count]

    monkeypatch.setattr(prefilter, "_top_intensities", full)
    return rank_candidates(out_ledgers, in_ledgers, **kwargs)


def picks(candidates):
    return [(c.source, c.sink, c.rank_score) for c in candidates]


@pytest.fixture
def decodes(monkeypatch):
    """Count Kleinberg decodes made through the pre-filter."""
    calls = []
    decode = prefilter.kleinberg_states

    def spy(counts):
        calls.append(len(counts))
        return decode(counts)

    monkeypatch.setattr(prefilter, "kleinberg_states", spy)
    return calls


class TestDecodeBound:
    """``rank_candidates`` stops decoding once ``2 * score`` is beaten."""

    def test_bayc_picks_match_full_decode_with_fewer_decodes(
        self, monkeypatch, decodes
    ):
        network = make_dataset("bayc")
        out_ledgers, in_ledgers = node_ledgers(network)
        taus = network.edge_columns()[3]
        config = MiningConfig()
        kwargs = dict(
            window=max(1, round(0.03 * (max(taus) - min(taus)))),
            top_sources=config.top_sources,
            top_sinks=config.top_sinks,
            min_volume=config.min_volume,
        )
        bounded = rank_candidates(out_ledgers, in_ledgers, **kwargs)
        bounded_decodes = len(decodes)
        expected = full_decode_ranking(
            monkeypatch, out_ledgers, in_ledgers, **kwargs
        )
        full_decodes = len(decodes) - bounded_decodes
        assert picks(bounded) == picks(expected)
        assert full_decodes == len(out_ledgers) + len(in_ledgers)
        assert bounded_decodes < full_decodes // 4

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 40])
    def test_tied_scores_match_full_decode(self, count, monkeypatch):
        # Eight ledger shapes, each owned by three nodes whose names sort
        # apart, so equal scores and equal intensities fall on the cut.
        shapes = [
            [(t, 1.0 + shape) for t in range(0, 4 * (shape + 1), 2)]
            + [(40 + t, 5.0) for t in range(shape % 3)]
            for shape in range(8)
        ]
        out_ledgers = {
            f"{owner}{shape}": list(shapes[shape])
            for shape in range(8)
            for owner in ("c", "a", "b")
        }
        in_ledgers = {
            f"{owner}{shape}": list(shapes[7 - shape])
            for shape in range(8)
            for owner in ("z", "x", "y")
        }
        kwargs = dict(window=4, top_sources=count, top_sinks=count)
        bounded = rank_candidates(out_ledgers, in_ledgers, **kwargs)
        assert picks(bounded) == picks(
            full_decode_ranking(monkeypatch, out_ledgers, in_ledgers, **kwargs)
        )

    def test_bound_equal_to_the_cut_still_decodes(self, monkeypatch, decodes):
        # With burstiness 1 a multi-bin node's intensity is exactly
        # 2 * score.  "a" scores 1.0 against "b"'s 2.0 but ties its
        # intensity, and wins the tie on its node id.
        monkeypatch.setattr(
            prefilter,
            "burstiness",
            lambda counts, states: 1.0 if len(counts) > 1 else 0.0,
        )
        ledgers = {"b": [(0, 2.0)], "a": [(0, 1.0), (10, 0.0)]}
        [emitter] = prefilter._top_intensities(
            ledgers, window=4, min_volume=0.0, count=1
        )
        assert emitter.node == "a"
        assert emitter.intensity == 2.0
        assert len(decodes) == 2
