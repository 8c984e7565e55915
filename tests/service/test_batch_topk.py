"""Service-level tests for the batch and top-k operations.

Same acceptance bar as the single-query path: every served batch entry and
every top-k entry is exactly equal to a fresh sequential solve on the same
network state — the planner, the per-entry cache and the whole-reply
top-k cache are invisible to correctness.
"""

import asyncio

import pytest

from repro import BurstingFlowQuery, bfq_plus, find_bursting_flow
from repro.core import engine, top_k_bursts
from repro.service import BurstingFlowService, QueryRequest
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AppendRequest,
    BatchReply,
    BatchRequest,
    ErrorReply,
    TopKReply,
    TopKRequest,
    encode,
    parse_reply,
)

BATCH = (
    ("s", "t", 2),
    ("s", "t", 5),
    ("a", "t", 2),
    ("s", "t", 2),  # exact duplicate
    ("s", "t", 3),
)

PAIRS = (("s", "t"), ("a", "t"), ("s", "b"))


def run(coroutine):
    return asyncio.run(coroutine)


def expected_answers(network, triples):
    out = []
    for source, sink, delta in triples:
        result = find_bursting_flow(
            network, BurstingFlowQuery(source, sink, delta)
        )
        out.append((result.density, result.interval, result.flow_value))
    return out


class TestBatchOperation:
    @pytest.mark.parametrize("plan", ["shared", "independent"])
    def test_batch_equals_sequential(self, burst_network, plan):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                return await service.handle_request(
                    BatchRequest(id="b1", queries=BATCH, plan=plan)
                )

        reply = run(scenario())
        assert isinstance(reply, BatchReply), reply
        got = [(r.density, r.interval, r.flow_value) for r in reply.results]
        assert got == expected_answers(burst_network, BATCH)

    def test_shared_plan_reports_amortisation(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                return await service.handle_request(
                    BatchRequest(id="b1", queries=BATCH, plan="shared")
                )

        reply = run(scenario())
        planner = reply.planner
        assert planner["windows_reused"] > 0
        assert planner["amortization"] > 1.0
        assert planner["cache_misses"] == len(BATCH)
        assert planner["cache_hits"] == 0

    def test_second_batch_is_fully_cached(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                request = BatchRequest(id="b1", queries=BATCH, plan="shared")
                cold = await service.handle_request(request)
                warm = await service.handle_request(request)
                return cold, warm

        cold, warm = run(scenario())
        assert all(not entry.cached for entry in cold.results)
        assert all(entry.cached for entry in warm.results)
        assert warm.planner["cache_hits"] == len(BATCH)
        assert warm.planner["cache_misses"] == 0
        assert [
            (r.density, r.interval, r.flow_value) for r in warm.results
        ] == [(r.density, r.interval, r.flow_value) for r in cold.results]

    def test_partial_cache_solves_only_the_misses(self, burst_network):
        subset = BATCH[:2]

        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                await service.handle_request(
                    BatchRequest(id="b0", queries=subset, plan="shared")
                )
                return await service.handle_request(
                    BatchRequest(id="b1", queries=BATCH, plan="shared")
                )

        reply = run(scenario())
        got = [(r.density, r.interval, r.flow_value) for r in reply.results]
        assert got == expected_answers(burst_network, BATCH)
        # The two warmed triples (and the in-batch duplicate of the first)
        # come from the cache; only the genuinely new ones solve.
        cached_flags = [entry.cached for entry in reply.results]
        assert cached_flags == [True, True, False, True, False]
        assert reply.planner["cache_hits"] == 3
        assert reply.planner["cache_misses"] == 2

    def test_append_invalidates_batch_entries(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                request = BatchRequest(id="b1", queries=BATCH, plan="shared")
                await service.handle_request(request)
                await service.handle_request(
                    AppendRequest(id="a", edges=(("s", "t", 29, 4.0),))
                )
                after = await service.handle_request(request)
                return after

        after = run(scenario())
        assert all(not entry.cached for entry in after.results)
        network = run(self._mutated(burst_network))
        got = [(r.density, r.interval, r.flow_value) for r in after.results]
        assert got == expected_answers(network, BATCH)

    @staticmethod
    async def _mutated(network):
        from repro.temporal import TemporalEdge

        network.add_edge(TemporalEdge("s", "t", 29, 4.0))
        return network

    def test_unknown_node_is_typed_invalid(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                return await service.handle_request(
                    BatchRequest(id="b1", queries=(("s", "ghost", 2),))
                )

        reply = run(scenario())
        assert isinstance(reply, ErrorReply)
        assert reply.kind == "invalid"

    def test_unknown_plan_is_typed_invalid(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                return await service.handle_request(
                    BatchRequest(id="b1", queries=BATCH, plan="greedy")
                )

        reply = run(scenario())
        assert isinstance(reply, ErrorReply)
        assert reply.kind == "invalid"

    def test_independent_plan_solves_with_the_server_algorithm(
        self, burst_network, monkeypatch
    ):
        """An independent batch is solved, and cached, under the server's
        algorithm: a following query with that algorithm hits its entry."""
        solved_by = []
        for name, solve in list(engine.ALGORITHMS.items()):

            def spy(network, query, _name=name, _solve=solve, **kwargs):
                solved_by.append(_name)
                return _solve(network, query, **kwargs)

            monkeypatch.setitem(engine.ALGORITHMS, name, spy)
        triples = (("s", "t", 2), ("a", "t", 2), ("s", "t", 5))

        async def scenario():
            service = BurstingFlowService(burst_network, algorithm="bfq+")
            async with service:
                batch = await service.handle_request(
                    BatchRequest(id="b1", queries=triples, plan="independent")
                )
                query = await service.handle_request(
                    QueryRequest(
                        id="q1", source="s", sink="t", delta=2, algorithm="bfq+"
                    )
                )
                return batch, query

        batch, query = run(scenario())
        assert isinstance(batch, BatchReply), batch
        assert solved_by == ["bfq+"] * len(triples)
        expected = []
        for triple in triples:
            result = bfq_plus(burst_network, BurstingFlowQuery(*triple))
            expected.append((result.density, result.interval, result.flow_value))
        got = [(r.density, r.interval, r.flow_value) for r in batch.results]
        assert got == expected
        assert batch.planner == {"cache_hits": 0, "cache_misses": len(triples)}
        assert query.cached is True
        assert (query.density, query.interval, query.flow_value) == expected[0]


class TestTopKOperation:
    def test_topk_equals_local_ranking(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                return await service.handle_request(
                    TopKRequest(id="t1", pairs=PAIRS, delta=3, k=5)
                )

        reply = run(scenario())
        assert isinstance(reply, TopKReply), reply
        expected = top_k_bursts(burst_network, PAIRS, 3, k=5)
        assert [
            (e.source, e.sink, e.delta, e.density, e.interval, e.flow_value)
            for e in reply.entries
        ] == [
            (e.source, e.sink, e.delta, e.density, e.interval, e.flow_value)
            for e in expected
        ]

    def test_second_topk_is_cached(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                request = TopKRequest(id="t1", pairs=PAIRS, delta=3, k=5)
                cold = await service.handle_request(request)
                warm = await service.handle_request(request)
                return cold, warm

        cold, warm = run(scenario())
        assert cold.cached is False and warm.cached is True
        assert warm.entries == cold.entries

    def test_different_k_is_a_different_cache_entry(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                await service.handle_request(
                    TopKRequest(id="t1", pairs=PAIRS, delta=3, k=5)
                )
                return await service.handle_request(
                    TopKRequest(id="t2", pairs=PAIRS, delta=3, k=1)
                )

        narrower = run(scenario())
        assert narrower.cached is False
        assert len(narrower.entries) <= 1

    def test_invalid_k_is_typed_invalid(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                return await service.handle_request(
                    TopKRequest(id="t1", pairs=PAIRS, delta=3, k=0)
                )

        reply = run(scenario())
        assert isinstance(reply, ErrorReply)
        assert reply.kind == "invalid"


class TestCacheKeyCollisions:
    """Queries differing in the algorithm must not share entries.

    Regression for the silent-collision bug: the old key was
    ``(epoch, source, sink, delta)``, so a ``bfq*`` answer could be served
    to a ``bfq`` request.  The algorithm is in the key now; hits require
    the same algorithm.
    """

    @staticmethod
    async def _pair(network, first_kwargs, second_kwargs):
        async with BurstingFlowService(network) as service:
            first = await service.handle_request(
                QueryRequest(id="q1", source="s", sink="t", delta=2, **first_kwargs)
            )
            second = await service.handle_request(
                QueryRequest(id="q2", source="s", sink="t", delta=2, **second_kwargs)
            )
            return first, second

    def test_algorithm_distinguishes_entries(self, burst_network):
        first, second = run(
            self._pair(
                burst_network, {"algorithm": "bfq*"}, {"algorithm": "bfq"}
            )
        )
        assert first.cached is False
        assert second.cached is False  # not served from the bfq* entry
        assert (second.density, second.interval) == (first.density, first.interval)

    def test_same_recipe_still_hits(self, burst_network):
        first, second = run(
            self._pair(
                burst_network,
                {"algorithm": "bfq*"},
                {"algorithm": "bfq*"},
            )
        )
        assert first.cached is False
        assert second.cached is True

    def test_default_and_explicit_transform_share_one_entry(self, burst_network):
        # Old clients may still send "transform"; the key ignores it, so
        # such a request hits the entry a default request populated.
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                replies = []
                for extra in ({}, {"transform": "skeleton"}):
                    payload = {
                        "v": PROTOCOL_VERSION, "id": "q", "op": "query",
                        "source": "s", "sink": "t", "delta": 2, **extra,
                    }
                    replies.append(
                        parse_reply(await service.handle_raw(encode(payload)))
                    )
                return replies

        first, second = run(scenario())
        assert first.cached is False
        assert second.cached is True
