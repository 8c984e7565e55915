"""Cluster routing for batch and top-k requests.

The coordinator forwards one sub-request per replica that owns any of
the request's ``(source, sink)`` pairs, never one per query or per
pair: the planner's amortisation lives in the batch a replica receives
(one skeleton per source shared by its sinks, one memo per pair), and
the pair's shard owner holds its cache entries.  These tests pin that
routing and the merged replies' exact equality with single-node
answers.
"""

import asyncio

from repro import BurstingFlowQuery, find_bursting_flow
from repro.core import top_k_bursts
from repro.service.protocol import BatchRequest, ErrorReply, TopKRequest
from repro.temporal import TemporalFlowNetwork

from tests.cluster.test_cluster_e2e import boot_cluster
from tests.service.test_interleave import SEED_EDGES, fresh_triple

BATCH = (
    ("s", "t", 2),
    ("a", "t", 1),
    ("s", "t", 4),
    ("s", "b", 2),
    ("s", "t", 2),  # duplicate rides its group's memo
)

PAIRS = (("s", "t"), ("a", "t"), ("s", "b"), ("b", "t"))


def seed_network():
    return TemporalFlowNetwork.from_tuples(SEED_EDGES)


def test_batch_through_coordinator_equals_single_node(tmp_path):
    async def scenario():
        coordinator = await boot_cluster(tmp_path)
        try:
            reply = await coordinator.handle_request(
                BatchRequest(id="b1", queries=BATCH, plan="shared")
            )
            assert reply.ok, reply
            snapshot = await coordinator.snapshot()
            return reply, snapshot
        finally:
            await coordinator.stop()

    reply, snapshot = asyncio.run(scenario())
    expected = [fresh_triple(SEED_EDGES, s, t, d) for s, t, d in BATCH]
    assert [
        (r.density, r.interval, r.flow_value) for r in reply.results
    ] == expected
    assert reply.planner["groups_routed"] == 3  # distinct (s, t) pairs
    assert snapshot["coordinator"]["counters"]["batches"] == 1


def test_batch_groups_land_on_their_affinity_owner(tmp_path):
    async def scenario():
        coordinator = await boot_cluster(tmp_path)
        try:
            reply = await coordinator.handle_request(
                BatchRequest(id="b1", queries=BATCH, plan="shared")
            )
            assert reply.ok, reply
            # One sub-batch per owner that holds any of the batch's pairs.
            owners = {
                coordinator.router.affinity(source, sink, ["r0", "r1"])
                for source, sink, _delta in BATCH
            }
            expected = {name: int(name in owners) for name in ("r0", "r1")}
            snapshot = await coordinator.snapshot()
            return expected, snapshot
        finally:
            await coordinator.stop()

    expected, snapshot = asyncio.run(scenario())
    served = {
        name: replica["requests"].get("batch", 0)
        for name, replica in snapshot["replicas"].items()
    }
    assert served == expected


def test_sinks_of_one_source_on_one_owner_share_a_skeleton(tmp_path):
    async def scenario():
        coordinator = await boot_cluster(tmp_path)
        try:
            by_owner = {}
            for sink in ("t", "a", "b"):  # 3 sinks, 2 owners: one repeats
                owner = coordinator.router.affinity("s", sink, ["r0", "r1"])
                by_owner.setdefault(owner, []).append(sink)
            sinks = next(group for group in by_owner.values() if len(group) > 1)
            queries = tuple(("s", sink, 2) for sink in sinks[:2])
            reply = await coordinator.handle_request(
                BatchRequest(id="b1", queries=queries, plan="shared")
            )
            assert reply.ok, reply
            snapshot = await coordinator.snapshot()
            return queries, reply, snapshot
        finally:
            await coordinator.stop()

    queries, reply, snapshot = asyncio.run(scenario())
    served = [
        replica["requests"].get("batch", 0)
        for replica in snapshot["replicas"].values()
    ]
    assert reply.planner["skeletons_compiled"] == 1  # shared across sinks
    assert sorted(served) == [0, 1]  # one sub-batch, to the pairs' owner
    assert reply.planner["groups_routed"] == 2
    assert [
        (r.density, r.interval, r.flow_value) for r in reply.results
    ] == [fresh_triple(SEED_EDGES, s, t, d) for s, t, d in queries]


def test_batch_survives_replica_loss(tmp_path):
    async def scenario():
        coordinator = await boot_cluster(tmp_path)
        try:
            coordinator._mark_dead("r0")
            reply = await coordinator.handle_request(
                BatchRequest(id="b1", queries=BATCH, plan="shared")
            )
            return reply
        finally:
            await coordinator.stop()

    reply = asyncio.run(scenario())
    assert reply.ok, reply
    expected = [fresh_triple(SEED_EDGES, s, t, d) for s, t, d in BATCH]
    assert [
        (r.density, r.interval, r.flow_value) for r in reply.results
    ] == expected


def test_batch_with_unknown_node_is_typed_invalid(tmp_path):
    async def scenario():
        coordinator = await boot_cluster(tmp_path)
        try:
            return await coordinator.handle_request(
                BatchRequest(id="b1", queries=(("s", "ghost", 2),))
            )
        finally:
            await coordinator.stop()

    reply = asyncio.run(scenario())
    assert isinstance(reply, ErrorReply)
    assert reply.kind == "invalid"


def test_topk_through_coordinator_equals_single_node(tmp_path):
    async def scenario():
        coordinator = await boot_cluster(tmp_path)
        try:
            reply = await coordinator.handle_request(
                TopKRequest(id="t1", pairs=PAIRS, delta=2, k=3)
            )
            assert reply.ok, reply
            snapshot = await coordinator.snapshot()
            return reply, snapshot
        finally:
            await coordinator.stop()

    reply, snapshot = asyncio.run(scenario())
    expected = top_k_bursts(seed_network(), PAIRS, 2, k=3)
    assert [
        (e.source, e.sink, e.delta, e.density, e.interval, e.flow_value)
        for e in reply.entries
    ] == [
        (e.source, e.sink, e.delta, e.density, e.interval, e.flow_value)
        for e in expected
    ]
    assert snapshot["coordinator"]["counters"]["topks"] == 1


def test_topk_merge_is_scatter_order_independent(tmp_path):
    """The coordinator's merge reproduces the canonical single-node
    ranking even though each replica only ranked its own shard."""

    async def scenario(pairs):
        coordinator = await boot_cluster(tmp_path)
        try:
            reply = await coordinator.handle_request(
                TopKRequest(id="t1", pairs=pairs, delta=2, k=10)
            )
            assert reply.ok, reply
            return reply
        finally:
            await coordinator.stop()

    reply = asyncio.run(scenario(PAIRS))
    expected = top_k_bursts(seed_network(), PAIRS, 2, k=10)
    got = [(e.source, e.sink, e.density) for e in reply.entries]
    assert got == [(e.source, e.sink, e.density) for e in expected]
