"""The coordinator's HTTP routes go through its request handler.

The coordinator serves HTTP through the same front end as the single
service: a body whose op differs from the route's is refused, and
``GET /metrics`` / ``POST /drain`` are ordinary ``metrics``/``drain``
requests — counted, and answering exactly the NDJSON op's result.
"""

import asyncio
import json

from repro.cluster import ClusterCoordinator, InlineReplica, seed_log
from repro.store.log import AppendLog

from tests.service.test_interleave import SEED_EDGES
from tests.service.test_op_table import _body, _http


async def _boot(tmp_path):
    path = tmp_path / "cluster.log"
    log = AppendLog(path)
    try:
        seed_log(log, SEED_EDGES)
    finally:
        log.close()
    coordinator = ClusterCoordinator(
        path, [InlineReplica(f"r{i}", path) for i in range(2)]
    )
    return coordinator, await coordinator.start("127.0.0.1", 0)


async def _ndjson(address, op):
    reader, writer = await asyncio.open_connection(*address)
    writer.write(_body(op) + b"\n")
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return reply["result"]


def test_coordinator_refuses_a_body_whose_op_differs_from_the_route(tmp_path):
    async def scenario():
        coordinator, address = await _boot(tmp_path)
        try:
            epoch_before = coordinator.committed_epoch
            drained = await _http(address, "POST", "/query", _body("drain"))
            appended = await _http(
                address, "POST", "/patterns",
                _body("append", edges=[["s", "t", 99, 1.0]]),
            )
            return (
                drained, appended, coordinator._draining,
                epoch_before, coordinator.committed_epoch,
            )
        finally:
            await coordinator.stop()

    drained, appended, draining, before, after = asyncio.run(scenario())
    for status, payload in (drained, appended):
        assert status == 400
        assert payload["error"]["kind"] == "invalid"
    assert draining is False
    assert after == before


def test_coordinator_counts_http_metrics_and_drain(tmp_path):
    async def scenario():
        coordinator, address = await _boot(tmp_path)
        try:
            _, http_metrics = await _http(address, "GET", "/metrics")
            ndjson_metrics = await _ndjson(address, "metrics")
            _, http_drain = await _http(address, "POST", "/drain")
            ndjson_drain = await _ndjson(address, "drain")
            return (
                http_metrics, ndjson_metrics, http_drain, ndjson_drain,
                dict(coordinator.counters.requests),
            )
        finally:
            await coordinator.stop()

    http_metrics, ndjson_metrics, http_drain, ndjson_drain, requests = (
        asyncio.run(scenario())
    )
    assert requests == {"metrics": 2, "drain": 2}
    assert http_drain == ndjson_drain == {"draining": True, "inflight": 0}
    assert http_metrics.keys() == ndjson_metrics.keys()
    http_counts = http_metrics["coordinator"]["counters"]["requests"]
    ndjson_counts = ndjson_metrics["coordinator"]["counters"]["requests"]
    assert http_counts == {"metrics": 1}
    assert ndjson_counts == {"metrics": 2}
