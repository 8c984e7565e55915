"""Shared-memory lifecycle tests for the process-pool engine backend.

The properties that matter operationally:

* appends publish to the shared log and the pool object is *reused* —
  no teardown/re-spawn per epoch, and workers still answer on the
  mutated network;
* a :class:`BrokenProcessPool` recovery re-attaches the fresh workers to
  the same store and replays the full log;
* ``close()`` unlinks every segment — no ``/dev/shm`` leaks after any of
  the above;
* where shared memory cannot be created, the pool falls back to the
  classic pickled-``initargs`` path and still answers correctly.
"""

import asyncio
import glob

import pytest

from repro.core.engine import find_bursting_flow
from repro.core.query import BurstingFlowQuery
from repro.service.protocol import AppendRequest, QueryRequest
from repro.service.server import BurstingFlowService
from repro.service import workers
from repro.service.workers import ProcessEnginePool
from repro.temporal import TemporalEdge


def run(coro):
    return asyncio.run(coro)


def _segments(name: str) -> list[str]:
    return glob.glob(f"/dev/shm/{name}*")


class TestProcessPoolSharedMemory:
    def test_append_publishes_without_pool_rebuild(self, burst_network):
        async def scenario():
            service = BurstingFlowService(
                burst_network, processes=2, mp_context="fork"
            )
            try:
                assert service.engine.shared
                store_name = service.engine._store.name
                request = QueryRequest(id="q", source="s", sink="t", delta=2)
                cold = await service.handle_request(request)
                pool_before = service.engine._pool
                await service.handle_request(
                    AppendRequest(
                        id="a",
                        edges=(("s", "a", 11, 250.0), ("a", "t", 12, 250.0)),
                    )
                )
                post = await service.handle_request(request)
                reused = service.engine._pool is pool_before
                return cold, post, reused, store_name
            finally:
                await service.stop()

        cold, post, reused, store_name = run(scenario())
        assert cold.ok and post.ok
        assert reused, "append must publish to the log, not rebuild the pool"
        assert post.cached is False
        reference = find_bursting_flow(
            burst_network, BurstingFlowQuery("s", "t", 2)
        )
        assert post.density == pytest.approx(reference.density)
        assert tuple(post.interval) == reference.interval
        assert not _segments(store_name)

    def test_broken_pool_recovers_and_unlinks(self, burst_network):
        async def scenario():
            pool = ProcessEnginePool(
                burst_network, processes=2, mp_context="fork"
            )
            try:
                assert pool.shared
                store_name = pool._store.name
                await pool.answer("s", "t", 5, "bfq*")
                for process in list(pool._pool._processes.values()):
                    process.terminate()
                answer = await asyncio.wait_for(
                    pool.answer("s", "t", 2, "bfq*"), timeout=60.0
                )
                return answer, pool.restarts, store_name
            finally:
                pool.close()

        answer, restarts, store_name = run(scenario())
        assert restarts == 1
        reference = find_bursting_flow(
            burst_network, BurstingFlowQuery("s", "t", 2)
        )
        assert answer[0] == pytest.approx(reference.density)
        assert not _segments(store_name)

    def test_unpublished_mutation_resnapshots(self, burst_network):
        # A direct network mutation that bypasses mark_stale(edges) must
        # still never serve stale answers: the next query re-snapshots
        # the log and rebuilds the pool.
        from repro.temporal.edge import TemporalEdge

        async def scenario():
            pool = ProcessEnginePool(
                burst_network, processes=2, mp_context="fork"
            )
            try:
                first_store = pool._store.name
                await pool.answer("s", "t", 2, "bfq*")
                burst_network.add_edge(TemporalEdge("s", "t", 9, 123.0))
                pool.mark_stale()  # no edges: forces the re-snapshot path
                answer = await pool.answer("s", "t", 2, "bfq*")
                return answer, first_store, pool._store.name
            finally:
                pool.close()

        answer, first_store, second_store = run(scenario())
        assert first_store != second_store
        reference = find_bursting_flow(
            burst_network, BurstingFlowQuery("s", "t", 2)
        )
        assert answer[0] == pytest.approx(reference.density)
        assert not _segments(first_store)
        assert not _segments(second_store)

    def test_shared_false_still_works(self, burst_network, monkeypatch):
        def no_shared_memory(network):
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(workers, "SharedNetworkStore", no_shared_memory)
        query = BurstingFlowQuery("s", "t", 2)
        before = find_bursting_flow(burst_network, query)

        async def scenario():
            pool = ProcessEnginePool(burst_network, processes=2, mp_context="fork")
            try:
                assert not pool.shared
                first = await pool.answer("s", "t", 2, "bfq*")
                # Classic mode: an append rebuilds the pool, which re-ships
                # the pickled network to fresh workers.
                burst_network.add_edge(TemporalEdge("s", "t", 11, 90.0))
                pool.mark_stale([])
                return first, await pool.answer("s", "t", 2, "bfq*")
            finally:
                pool.close()

        answer, after_append = run(scenario())
        after = find_bursting_flow(burst_network, query)
        assert answer[:3] == (before.density, before.interval, before.flow_value)
        assert after_append[:3] == (after.density, after.interval, after.flow_value)
        assert after.density != before.density
