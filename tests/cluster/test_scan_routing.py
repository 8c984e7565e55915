"""Cluster mining: the service's funnel, confirmed across the shards.

The coordinator runs the same :class:`~repro.mining.MiningPipeline`
funnel a single service runs, over its *committed mirror*: the pipeline
shortlists and settles (flag, persist), and only the confirmation
solves in between are routed, through the top-k scatter every ranked
query uses (affinity sharding, failover, canonical merge).  Flagged
patterns persist to the coordinator's durable store, which must survive
a coordinator restart with the identical id set.
"""

import asyncio

from repro.cluster import ClusterCoordinator, InlineReplica, seed_log
from repro.mining import MiningPipeline
from repro.mining.store import PatternStore
from repro.service.protocol import (
    AppendRequest,
    ErrorReply,
    PatternsRequest,
    ScanRequest,
)
from repro.store.log import AppendLog
from repro.temporal import TemporalFlowNetwork

from tests.mining.conftest import PLANTED_PAIRS, planted_edges


def seeded_log(tmp_path):
    log_path = tmp_path / "cluster.log"
    log = AppendLog(log_path)
    try:
        seed_log(log, planted_edges())
    finally:
        log.close()
    return log_path


async def boot_mining_cluster(tmp_path, replicas=2):
    path = seeded_log(tmp_path)
    handles = [InlineReplica(f"r{i}", path) for i in range(replicas)]
    coordinator = ClusterCoordinator(
        path, handles, patterns_dir=tmp_path / "patterns"
    )
    await coordinator.start("127.0.0.1", 0)
    return coordinator


class TestScanRouting:
    def test_scan_finds_the_planted_burst_and_rescan_dedupes(self, tmp_path):
        async def scenario():
            coordinator = await boot_mining_cluster(tmp_path)
            try:
                first = await coordinator.handle_request(
                    ScanRequest(id="s1", delta=4)
                )
                second = await coordinator.handle_request(
                    ScanRequest(id="s2", delta=4)
                )
                snapshot = await coordinator.snapshot()
                return first, second, snapshot
            finally:
                await coordinator.stop()

        first, second, snapshot = asyncio.run(scenario())
        assert first.ok, first
        assert first.new == len(PLANTED_PAIRS)
        assert second.new == 0 and second.deduped == len(PLANTED_PAIRS)
        assert snapshot["coordinator"]["counters"]["scans"] == 2
        assert snapshot["coordinator"]["mining"]["patterns"] == len(
            PLANTED_PAIRS
        )

    def test_confirmation_rides_the_topk_scatter(self, tmp_path):
        async def scenario():
            coordinator = await boot_mining_cluster(tmp_path)
            try:
                reply = await coordinator.handle_request(
                    ScanRequest(id="s1", delta=4)
                )
                assert reply.ok, reply
                snapshot = await coordinator.snapshot()
                return reply, snapshot
            finally:
                await coordinator.stop()

        reply, snapshot = asyncio.run(scenario())
        # The solves landed on replicas as topk requests — the scan never
        # solves locally — and with 2 replicas the funnel's candidate
        # pairs are sharded by affinity, so both replicas served some.
        served = {
            name: replica["requests"].get("topk", 0)
            for name, replica in snapshot["replicas"].items()
        }
        assert sum(served.values()) >= 1
        assert reply.funnel["solves"] == reply.funnel["candidates"] > 0

    def test_scan_survives_replica_loss(self, tmp_path):
        async def scenario():
            coordinator = await boot_mining_cluster(tmp_path)
            try:
                coordinator._mark_dead("r0")
                reply = await coordinator.handle_request(
                    ScanRequest(id="s1", delta=4)
                )
                return reply
            finally:
                await coordinator.stop()

        reply = asyncio.run(scenario())
        assert reply.ok, reply
        assert reply.new == len(PLANTED_PAIRS)

    def test_append_then_scan_sees_the_new_burst(self, tmp_path):
        async def scenario():
            coordinator = await boot_mining_cluster(tmp_path)
            try:
                edges = tuple(
                    ("hot_s", "hot_t", 60 + t, 80.0) for t in range(5)
                )
                ack = await coordinator.handle_request(
                    AppendRequest(id="a1", edges=edges)
                )
                assert ack.ok, ack
                reply = await coordinator.handle_request(
                    ScanRequest(id="s1", delta=4)
                )
                patterns = await coordinator.handle_request(
                    PatternsRequest(id="g1", source="hot_s")
                )
                return reply, patterns
            finally:
                await coordinator.stop()

        reply, patterns = asyncio.run(scenario())
        assert reply.ok, reply
        assert len(patterns.patterns) == 1
        assert patterns.patterns[0]["sink"] == "hot_t"

    def test_mining_disabled_is_a_typed_invalid_error(self, tmp_path):
        async def scenario():
            path = seeded_log(tmp_path)
            handles = [InlineReplica("r0", path)]
            coordinator = ClusterCoordinator(path, handles)  # no patterns_dir
            await coordinator.start("127.0.0.1", 0)
            try:
                scan = await coordinator.handle_request(
                    ScanRequest(id="s1", delta=4)
                )
                patterns = await coordinator.handle_request(
                    PatternsRequest(id="g1")
                )
                return scan, patterns
            finally:
                await coordinator.stop()

        scan, patterns = asyncio.run(scenario())
        assert isinstance(scan, ErrorReply) and scan.kind == "invalid"
        assert "mining is not enabled" in scan.message
        assert isinstance(patterns, ErrorReply)


#: An auto-ranked scan, then pinned pairs (one a self-pair, one naming
#: an unknown node) with every override and ``persist="all"``.
SCANS = (
    {"delta": 4},
    {
        "delta": 4,
        "pairs": PLANTED_PAIRS + (("u0", "v0"), ("mid", "mid"), ("u1", "ghost")),
        "top": 3,
        "min_volume": 0.5,
        "persist": "all",
    },
)


class TestSameFunnelAsTheService:
    def test_scan_replies_equal_a_single_node_pipeline(self, tmp_path):
        async def scenario():
            coordinator = await boot_mining_cluster(tmp_path)
            try:
                replies = []
                for n, scan in enumerate(SCANS):
                    request = ScanRequest(
                        id=f"s{n}",
                        delta=scan["delta"],
                        pairs=scan.get("pairs"),
                        top=scan.get("top"),
                        min_volume=scan.get("min_volume"),
                        persist=scan.get("persist", "flagged"),
                    )
                    replies.append(await coordinator.handle_request(request))
                return replies
            finally:
                await coordinator.stop()

        replies = asyncio.run(scenario())
        network = TemporalFlowNetwork.from_tuples(planted_edges())
        with PatternStore(tmp_path / "single") as store:
            pipeline = MiningPipeline(network, store)
            outcomes = [pipeline.scan(**scan) for scan in SCANS]
        for reply, outcome in zip(replies, outcomes):
            assert reply.ok, reply
            assert reply.funnel == outcome.funnel.as_dict()
            assert list(reply.new_ids) == outcome.new_ids
            assert reply.deduped == outcome.deduped
        assert outcomes[0].new_ids and outcomes[1].deduped  # both halves ran


class TestCoordinatorRestartStability:
    def test_pattern_ids_survive_a_coordinator_restart(self, tmp_path):
        async def first_life():
            coordinator = await boot_mining_cluster(tmp_path)
            try:
                reply = await coordinator.handle_request(
                    ScanRequest(id="s1", delta=4)
                )
                assert reply.ok, reply
                return set(reply.new_ids)
            finally:
                await coordinator.stop()

        async def second_life():
            path = tmp_path / "cluster.log"
            handles = [InlineReplica(f"r{i}", path) for i in range(2)]
            coordinator = ClusterCoordinator(
                path, handles, patterns_dir=tmp_path / "patterns"
            )
            await coordinator.start("127.0.0.1", 0)
            try:
                replayed = set(coordinator.patterns.ids())
                rescan = await coordinator.handle_request(
                    ScanRequest(id="s2", delta=4)
                )
                patterns = await coordinator.handle_request(
                    PatternsRequest(id="g1")
                )
                return replayed, rescan, patterns
            finally:
                await coordinator.stop()

        first_ids = asyncio.run(first_life())
        replayed, rescan, patterns = asyncio.run(second_life())
        assert replayed == first_ids  # the store replayed every pattern
        assert rescan.new == 0 and rescan.deduped == len(first_ids)
        assert {
            record["pattern_id"] for record in patterns.patterns
        } == first_ids

    def test_store_dedupes_across_lives_with_zero_duplicates(self, tmp_path):
        async def life(scan_id):
            if scan_id == "s1":
                coordinator = await boot_mining_cluster(tmp_path)
            else:  # later lives recover the existing log — no re-seed
                path = tmp_path / "cluster.log"
                handles = [InlineReplica(f"r{i}", path) for i in range(2)]
                coordinator = ClusterCoordinator(
                    path, handles, patterns_dir=tmp_path / "patterns"
                )
                await coordinator.start("127.0.0.1", 0)
            try:
                reply = await coordinator.handle_request(
                    ScanRequest(id=scan_id, delta=4)
                )
                assert reply.ok, reply
            finally:
                await coordinator.stop()

        for scan_id in ("s1", "s2", "s3"):
            asyncio.run(life(scan_id))
        with PatternStore(tmp_path / "patterns") as store:
            assert len(store) == len(PLANTED_PAIRS)
