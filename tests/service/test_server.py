"""End-to-end tests for the concurrent delta-BFlow query service.

The acceptance criterion of the service subsystem: every served answer —
including under concurrency, caching and interleaved appends — is
**exactly equal** (density, interval, flow value) to a fresh sequential
:func:`repro.core.engine.find_bursting_flow` on the same network state.
"""

import asyncio
import json
import urllib.request

import pytest

from repro import BurstingFlowQuery, find_bursting_flow
from repro.service import (
    BurstingFlowService,
    OverloadedError,
    ProcessEnginePool,
    QueryRequest,
    ServiceClient,
)
from repro.service.protocol import AppendRequest, ErrorReply, QueryReply
from repro.temporal import TemporalFlowNetwork


def run(coroutine):
    return asyncio.run(coroutine)


def fresh_answer(network, source, sink, delta, algorithm="bfq*"):
    result = find_bursting_flow(
        network, BurstingFlowQuery(source, sink, delta), algorithm=algorithm
    )
    return (result.density, result.interval, result.flow_value)


def assert_matches(reply: QueryReply, network, source, sink, delta):
    density, interval, flow_value = fresh_answer(network, source, sink, delta)
    assert reply.ok, reply
    assert reply.density == density
    assert reply.interval == interval
    assert reply.flow_value == flow_value


class TestHandleRequest:
    def test_cold_query_equals_sequential(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                return await service.handle_request(
                    QueryRequest(id="q", source="s", sink="t", delta=2)
                )

        reply = run(scenario())
        assert reply.cached is False
        assert_matches(reply, burst_network, "s", "t", 2)

    def test_warm_query_is_cached_and_identical(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                request = QueryRequest(id="q", source="s", sink="t", delta=2)
                cold = await service.handle_request(request)
                warm = await service.handle_request(request)
                return cold, warm

        cold, warm = run(scenario())
        assert cold.cached is False and warm.cached is True
        assert (warm.density, warm.interval, warm.flow_value) == (
            cold.density, cold.interval, cold.flow_value
        )

    def test_append_bumps_epoch_and_invalidates(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                request = QueryRequest(id="q", source="s", sink="t", delta=2)
                await service.handle_request(request)
                before = service.network.epoch
                ack = await service.handle_request(
                    AppendRequest(
                        id="a", edges=(("s", "a", 11, 300.0), ("a", "t", 12, 300.0))
                    )
                )
                after = await service.handle_request(request)
                return before, ack, after

        before, ack, after = run(scenario())
        assert ack.ok and ack.appended == 2
        assert ack.epoch > before
        assert ack.invalidated == 1  # the cached (s, t, 2) answer died
        assert after.cached is False  # recomputed on the new epoch
        assert_matches(after, burst_network, "s", "t", 2)

    def test_unknown_node_is_typed_invalid(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                return await service.handle_request(
                    QueryRequest(id="q", source="nobody", sink="t", delta=2)
                )

        reply = run(scenario())
        assert isinstance(reply, ErrorReply) and reply.kind == "invalid"

    def test_unknown_algorithm_is_typed_invalid(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                return await service.handle_request(
                    QueryRequest(
                        id="q", source="s", sink="t", delta=2,
                        algorithm="wizardry",
                    )
                )

        reply = run(scenario())
        assert isinstance(reply, ErrorReply) and reply.kind == "invalid"

    def test_append_rejects_bad_edge_but_reports_epoch(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                reply = await service.handle_request(
                    AppendRequest(
                        id="a",
                        edges=(("x", "y", 5, 1.0), ("x", "y", 5, -3.0)),
                    )
                )
                return reply, service.network.epoch

        reply, epoch = run(scenario())
        assert isinstance(reply, ErrorReply) and reply.kind == "invalid"
        # The first (valid) edge landed before the failure was detected.
        assert epoch > 0


class TestAdmissionUnderLoad:
    def test_saturation_sheds_typed_overloaded_not_hangs(self, burst_network):
        """ISSUE acceptance: saturation produces Overloaded, never hangs."""

        async def scenario():
            service = BurstingFlowService(burst_network, max_pending=2)

            release = asyncio.Event()

            async def slow_answer(*_args):
                await release.wait()
                return (1.0, (0, 1), 1.0)

            service.engine.answer = slow_answer  # occupy every slot
            try:
                requests = [
                    QueryRequest(id=f"q{i}", source="s", sink="t", delta=i + 1)
                    for i in range(5)
                ]
                tasks = [
                    asyncio.create_task(service.handle_request(r))
                    for r in requests
                ]
                await asyncio.sleep(0.05)  # let two admit, three shed
                release.set()
                replies = await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=10.0
                )
                return replies, service.snapshot()
            finally:
                await service.stop()

        replies, snapshot = run(scenario())
        shed = [r for r in replies if isinstance(r, ErrorReply)]
        served = [r for r in replies if not isinstance(r, ErrorReply)]
        assert len(served) == 2 and len(shed) == 3
        for reply in shed:
            assert reply.kind == "overloaded"
            assert reply.retry_after_ms > 0
        assert snapshot["queue"]["shed"] == 3
        assert snapshot["admission"]["inflight"] == 0  # all slots returned

    def test_deadline_produces_typed_timeout(self, burst_network):
        async def scenario():
            service = BurstingFlowService(burst_network)

            async def never_answers(*_args):
                await asyncio.sleep(3600)

            service.engine.answer = never_answers
            try:
                return await service.handle_request(
                    QueryRequest(
                        id="q", source="s", sink="t", delta=2, timeout=0.05
                    )
                )
            finally:
                await service.stop()

        reply = run(scenario())
        assert isinstance(reply, ErrorReply) and reply.kind == "timeout"


class TestTcpTransport:
    def test_concurrent_burst_equals_sequential(self, burst_network):
        """A concurrent NDJSON burst over TCP matches the offline engine."""
        deltas = [1, 2, 3, 5, 8, 13, 2, 3]  # repeats exercise the cache

        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                host, port = await service.start()

                async def one_query(index, delta):
                    reader, writer = await asyncio.open_connection(host, port)
                    line = json.dumps(
                        {"v": 1, "id": f"q{index}", "op": "query",
                         "source": "s", "sink": "t", "delta": delta}
                    ).encode() + b"\n"
                    writer.write(line)
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    return reply

                cold = await asyncio.gather(
                    *(one_query(i, d) for i, d in enumerate(deltas))
                )
                # A second identical burst must be served entirely warm
                # (identical answers, all from the cache).
                warm = await asyncio.gather(
                    *(one_query(i, d) for i, d in enumerate(deltas))
                )
                return cold, warm, service.snapshot()

        cold, warm, snapshot = run(scenario())
        for cold_reply, warm_reply, delta in zip(cold, warm, deltas):
            assert cold_reply["ok"], cold_reply
            density, interval, flow_value = fresh_answer(
                burst_network, "s", "t", delta
            )
            for reply in (cold_reply, warm_reply):
                assert reply["result"]["density"] == density
                assert tuple(reply["result"]["interval"]) == interval
                assert reply["result"]["flow_value"] == flow_value
            assert warm_reply["result"]["cached"] is True
        assert snapshot["requests"]["query"] == 2 * len(deltas)
        assert snapshot["cache"]["hits"] >= len(deltas)

    def test_pipelined_requests_on_one_connection(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                host, port = await service.start()
                reader, writer = await asyncio.open_connection(host, port)
                for request_id, op in (("p1", "ping"), ("m1", "metrics"),
                                       ("p2", "ping")):
                    writer.write(
                        json.dumps({"v": 1, "id": request_id, "op": op}).encode()
                        + b"\n"
                    )
                await writer.drain()
                replies = [json.loads(await reader.readline()) for _ in range(3)]
                writer.close()
                await writer.wait_closed()
                return replies

        replies = run(scenario())
        assert [r["id"] for r in replies] == ["p1", "m1", "p2"]
        assert all(r["ok"] for r in replies)

    def test_malformed_line_gets_typed_error_and_connection_survives(
        self, burst_network
    ):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                host, port = await service.start()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"{broken\n")
                writer.write(
                    json.dumps({"v": 1, "id": "p", "op": "ping"}).encode() + b"\n"
                )
                await writer.drain()
                bad = json.loads(await reader.readline())
                good = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return bad, good

        bad, good = run(scenario())
        assert bad["ok"] is False and bad["error"]["kind"] == "invalid"
        assert good["ok"] is True

    def test_blocking_client_helper(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                host, port = await service.start()
                loop = asyncio.get_running_loop()

                def client_session():
                    with ServiceClient(host, port) as client:
                        reply = client.query("s", "t", 2)
                        epoch = client.ping()
                        metrics = client.metrics()
                        ack = client.append([("s", "c", 21, 5.0)])
                        return reply, epoch, metrics, ack

                return await loop.run_in_executor(None, client_session)

        reply, epoch, metrics, ack = run(scenario())
        assert_matches(reply, burst_network, "s", "t", 2)
        assert ack.epoch > epoch
        assert metrics["requests"]["query"] == 1

    def test_client_raises_typed_overloaded(self, burst_network):
        async def scenario():
            service = BurstingFlowService(burst_network, max_pending=1)
            host, port = await service.start()
            release = asyncio.Event()

            async def slow_answer(*_args):
                await release.wait()
                return (1.0, (0, 1), 1.0)

            service.engine.answer = slow_answer
            occupier = asyncio.create_task(
                service.handle_request(
                    QueryRequest(id="hog", source="s", sink="t", delta=2)
                )
            )
            await asyncio.sleep(0.05)
            loop = asyncio.get_running_loop()

            def blocked_client():
                with ServiceClient(host, port) as client:
                    client.query("s", "t", 3)

            try:
                with pytest.raises(OverloadedError):
                    await loop.run_in_executor(None, blocked_client)
            finally:
                release.set()
                await occupier
                await service.stop()

        run(scenario())


class TestHttpTransport:
    def test_http_endpoints(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                host, port = await service.start()
                loop = asyncio.get_running_loop()
                base = f"http://{host}:{port}"

                def http_session():
                    with urllib.request.urlopen(f"{base}/healthz") as response:
                        health = json.loads(response.read())
                    body = json.dumps(
                        {"v": 1, "id": "q", "op": "query",
                         "source": "s", "sink": "t", "delta": 2}
                    ).encode()
                    request = urllib.request.Request(
                        f"{base}/query", data=body,
                        headers={"Content-Type": "application/json"},
                    )
                    with urllib.request.urlopen(request) as response:
                        query = json.loads(response.read())
                    with urllib.request.urlopen(f"{base}/metrics") as response:
                        metrics = json.loads(response.read())
                    return health, query, metrics

                return await loop.run_in_executor(None, http_session)

        health, query, metrics = run(scenario())
        assert health["ok"] is True
        density, interval, flow_value = fresh_answer(burst_network, "s", "t", 2)
        assert query["result"]["density"] == density
        assert tuple(query["result"]["interval"]) == interval
        assert metrics["requests"]["query"] == 1
        assert metrics["network"]["epoch"] == health["epoch"]

    def test_http_unknown_route_is_404(self, burst_network):
        async def scenario():
            async with BurstingFlowService(burst_network) as service:
                host, port = await service.start()
                loop = asyncio.get_running_loop()

                def fetch():
                    try:
                        urllib.request.urlopen(f"http://{host}:{port}/nope")
                    except urllib.error.HTTPError as error:
                        return error.code
                    return None

                import urllib.error

                return await loop.run_in_executor(None, fetch)

        assert run(scenario()) == 404


class TestProcessEngineMode:
    def test_process_pool_equals_sequential_and_survives_append(
        self, burst_network
    ):
        async def scenario():
            service = BurstingFlowService(
                burst_network, processes=2, mp_context="fork"
            )
            try:
                request = QueryRequest(id="q", source="s", sink="t", delta=2)
                cold = await service.handle_request(request)
                await service.handle_request(
                    AppendRequest(
                        id="a", edges=(("s", "a", 11, 250.0), ("a", "t", 12, 250.0))
                    )
                )
                post = await service.handle_request(request)
                return cold, post
            finally:
                await service.stop()

        cold, post = run(scenario())
        assert cold.ok and post.ok
        assert post.cached is False
        # The worker pool was rebuilt on the new epoch: the answer must
        # match a fresh solve on the *mutated* network.
        assert_matches(post, burst_network, "s", "t", 2)

    def test_pool_survives_worker_crash(self, burst_network):
        async def scenario():
            pool = ProcessEnginePool(
                burst_network, processes=2, mp_context="fork"
            )
            try:
                # Warm the pool so the worker processes actually spawn.
                await pool.answer("s", "t", 5, "bfq*")
                # Murder every worker out from under the pool.
                assert pool._pool._processes
                for process in list(pool._pool._processes.values()):
                    process.terminate()
                answer = await asyncio.wait_for(
                    pool.answer("s", "t", 2, "bfq*"), timeout=60.0
                )
                return answer, pool.restarts
            finally:
                pool.close()

        answer, restarts = run(scenario())
        assert restarts == 1
        assert answer[:3] == fresh_answer(burst_network, "s", "t", 2)
