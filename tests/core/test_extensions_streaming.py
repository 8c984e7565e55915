"""Tests for the streaming delta-BFlow monitor (future-work extension ii).

The central property: after finalize(), the monitor's answer equals the
offline ``find_bursting_flow`` over the same edges — asserted on hand
fixtures and on random streams.
"""

import random

import pytest

from repro import find_bursting_flow
from repro.exceptions import InvalidQueryError, InvalidTimestampError
from repro.extensions import StreamingBurstMonitor
from repro.temporal import TemporalFlowNetwork


def offline_answer(edges, source, sink, delta):
    network = TemporalFlowNetwork.from_tuples(edges)
    if source not in network or sink not in network:
        return None
    return find_bursting_flow(
        network, source=source, sink=sink, delta=delta, algorithm="bfq"
    )


BURST_STREAM = [
    ("s", "a", 2, 20.0),
    ("a", "t", 5, 20.0),
    ("s", "a", 10, 500.0),
    ("s", "b", 10, 400.0),
    ("a", "t", 12, 500.0),
    ("b", "t", 13, 400.0),
    ("s", "c", 20, 30.0),
    ("c", "t", 28, 30.0),
]


class TestValidation:
    def test_bad_delta(self):
        with pytest.raises(InvalidQueryError):
            StreamingBurstMonitor("s", "t", 0)

    def test_same_endpoints(self):
        with pytest.raises(InvalidQueryError):
            StreamingBurstMonitor("s", "s", 1)

    def test_stream_must_be_ordered(self):
        monitor = StreamingBurstMonitor("s", "t", 1)
        monitor.observe("s", "a", 5, 1.0)
        with pytest.raises(InvalidTimestampError, match="backwards"):
            monitor.observe("a", "t", 4, 1.0)

    def test_no_observe_after_finalize(self):
        monitor = StreamingBurstMonitor("s", "t", 1)
        monitor.observe("s", "t", 1, 1.0)
        monitor.finalize()
        with pytest.raises(InvalidTimestampError, match="finalized"):
            monitor.observe("s", "t", 9, 1.0)


class TestStreamingAnswers:
    def test_matches_offline_on_burst_stream(self):
        monitor = StreamingBurstMonitor("s", "t", 2)
        monitor.observe_batch(BURST_STREAM)
        record = monitor.finalize()
        offline = offline_answer(BURST_STREAM, "s", "t", 2)
        assert record.density == pytest.approx(offline.density)
        assert record.density == pytest.approx(300.0)

    def test_density_tie_breaks_by_the_canonical_rule(self):
        # (5, 10) and (0, 20) both reach density 2.0; the canonical rule
        # keeps the earlier start, whatever order the windows close in.
        edges = [
            ("s", "a", 0, 30.0),
            ("s", "b", 5, 10.0),
            ("b", "t", 10, 10.0),
            ("a", "t", 20, 30.0),
        ]
        monitor = StreamingBurstMonitor("s", "t", 5)
        monitor.observe_batch(edges)
        record = monitor.finalize()
        offline = offline_answer(edges, "s", "t", 5)
        assert offline.interval == (0, 20)
        assert record.interval == offline.interval
        assert record.flow_value == offline.flow_value
        assert record.density == offline.density == 2.0

    def test_watermark_semantics(self):
        monitor = StreamingBurstMonitor("s", "t", 1)
        monitor.observe("s", "a", 1, 5.0)
        monitor.observe("a", "t", 2, 5.0)
        # tau=2 is still an open batch: not yet reflected.
        assert monitor.watermark == 1
        assert not monitor.best().found
        monitor.observe("s", "x", 9, 1.0)  # closes tau=2 (tau=9 stays open)
        assert monitor.watermark == 2
        assert monitor.best().found
        assert monitor.best().density == pytest.approx(5.0)

    def test_finalize_processes_trailing_batch(self):
        monitor = StreamingBurstMonitor("s", "t", 1)
        monitor.observe("s", "a", 1, 5.0)
        monitor.observe("a", "t", 2, 5.0)
        assert not monitor.best().found
        record = monitor.finalize()
        assert record.found
        assert record.density == pytest.approx(5.0)

    def test_corner_case_burst_near_horizon(self):
        # The burst sits so late that start + delta overshoots T_max.
        stream = [
            ("s", "x", 1, 1.0),
            ("x", "t", 2, 1.0),
            ("s", "a", 9, 50.0),
            ("a", "t", 10, 50.0),
        ]
        monitor = StreamingBurstMonitor("s", "t", 5)
        monitor.observe_batch(stream)
        record = monitor.finalize()
        offline = offline_answer(stream, "s", "t", 5)
        assert record.density == pytest.approx(offline.density)
        assert record.interval == (5, 10)

    def test_corner_already_solved_by_its_start(self):
        # T_max - delta = 2 is itself a start, so its minimal window is the
        # corner [2, 4]; the offline plan has no corner and solves it once.
        edges = [("s", "a", 2, 5.0), ("s", "c", 3, 1.0), ("a", "t", 4, 5.0)]
        monitor = StreamingBurstMonitor("s", "t", 2)
        monitor.observe_batch(edges)
        record = monitor.finalize()
        assert monitor.stats["maxflow_runs"] == 1
        offline = offline_answer(edges, "s", "t", 2)
        assert record.interval == offline.interval == (2, 4)
        assert record.flow_value == offline.flow_value == 5.0

    def test_repeated_finalize_is_idempotent(self):
        monitor = StreamingBurstMonitor("s", "t", 1)
        monitor.observe("s", "t", 3, 2.0)
        first = monitor.finalize()
        second = monitor.finalize()
        assert first == second

    def test_stats_and_pruning(self):
        monitor = StreamingBurstMonitor("s", "t", 2)
        monitor.observe_batch(BURST_STREAM)
        monitor.finalize()
        stats = monitor.stats
        assert stats["maxflow_runs"] >= 1
        assert stats["live_windows"] >= 1
        # The weak tail windows after the big burst get pruned.
        assert stats["pruned_evaluations"] >= 1

    def test_empty_stream(self):
        monitor = StreamingBurstMonitor("s", "t", 1)
        record = monitor.finalize()
        assert not record.found


class TestStreamingMatchesOfflineRandomised:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_streams(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(3, 6))]
        horizon = rng.randint(3, 12)
        edges = []
        for _ in range(rng.randint(5, 25)):
            u, v = rng.sample(nodes, 2)
            edges.append((u, v, rng.randint(1, horizon), float(rng.randint(1, 9))))
        edges.sort(key=lambda e: e[2])
        delta = rng.randint(1, max(1, horizon // 2))

        monitor = StreamingBurstMonitor("n0", "n1", delta)
        monitor.observe_batch(edges)
        record = monitor.finalize()

        offline = offline_answer(edges, "n0", "n1", delta)
        if offline is None:
            assert not record.found
            return
        assert record.density == pytest.approx(offline.density), (
            f"seed={seed} streaming disagrees with offline"
        )
