"""The op table drives the codecs, the HTTP routes and the drain check."""

import asyncio
import json

import pytest

from repro.core.planner import BurstEntry
from repro.service import BurstingFlowService
from repro.service.protocol import (
    OPS,
    AppendReply,
    AppendRequest,
    BatchAnswer,
    BatchReply,
    BatchRequest,
    DrainReply,
    DrainRequest,
    MetricsReply,
    MetricsRequest,
    PatternsReply,
    PatternsRequest,
    PingRequest,
    PongReply,
    ProtocolError,
    QueryReply,
    QueryRequest,
    ScanReply,
    ScanRequest,
    TopKReply,
    TopKRequest,
    encode,
    parse_reply,
    parse_request,
    reply_payload,
    request_payload,
)

#: Per op: sample requests and success replies (defaults and every
#: optional field both covered).  An op added to OPS needs samples here.
SAMPLES = {
    "query": (
        [
            QueryRequest("q1", "s", "t", 3),
            QueryRequest("q2", 1, 2, 1, algorithm="bfq+", timeout=2.5, min_epoch=4),
        ],
        [
            QueryReply("q1", 900.0 / 7.0, (10, 13), 0.1 + 0.2, False, 4, 1.25),
            QueryReply("q2", 0.0, None, 0.0, True, 0, 0.0),
        ],
    ),
    "batch": (
        [
            BatchRequest("b1", (("s", "t", 3), (1, 2, 4))),
            BatchRequest("b2", (("s", "t", 1),), plan="independent",
                         timeout=1.0, min_epoch=2),
        ],
        [
            BatchReply(
                "b1",
                (BatchAnswer(2.5, (1, 4), 7.5, False), BatchAnswer(0.0, None, 0.0, True)),
                epoch=3, elapsed_ms=4.5, planner={"queries": 2, "amortization": 1.5},
            ),
        ],
    ),
    "topk": (
        [
            TopKRequest("k1", (("s", "t"), ("a", "b")), 2),
            TopKRequest("k2", ((1, 2),), 5, k=1, timeout=3.0, min_epoch=0),
        ],
        [
            TopKReply(
                "k1",
                (BurstEntry("s", "t", 2, 50.0, (20, 24), 200.0),),
                epoch=7, elapsed_ms=0.5, cached=True,
            ),
        ],
    ),
    "append": (
        [AppendRequest("a1", (("s", "t", 7, 2.5), (1, 2, 8, 3.0))),
         AppendRequest("a2", ())],
        [AppendReply("a1", appended=2, epoch=9, invalidated=3)],
    ),
    "scan": (
        [
            ScanRequest("s1", 4),
            ScanRequest("s2", 2, pairs=(("s", "t"),), top=3, min_volume=0.5,
                        persist="all", timeout=9.0, min_epoch=1),
        ],
        [ScanReply("s1", ("bf_1", "bf_2"), 1, {"solves": 3}, 5, 2.0)],
    ),
    "patterns": (
        [
            PatternsRequest("g1"),
            PatternsRequest("g2", source="s", sink=2, since=0, until=30,
                            min_density=1.5, limit=5),
        ],
        [PatternsReply("g1", ({"pattern_id": "bf_1", "interval": [1, 2]},))],
    ),
    "metrics": (
        [MetricsRequest("m1")],
        [MetricsReply("m1", {"requests": {"query": 2}, "draining": False})],
    ),
    "ping": ([PingRequest("p1")], [PongReply("p1", 12)]),
    "drain": ([DrainRequest("d1")], [DrainReply("d1", True, 3)]),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_every_op_round_trips_through_the_table(op):
    assert op in SAMPLES, f"op {op!r} has no round-trip samples"
    requests, replies = SAMPLES[op]
    spec = OPS[op]
    for request in requests:
        assert type(request) is spec.request
        assert parse_request(encode(request_payload(request))) == request
    for reply in replies:
        assert type(reply) is spec.reply
        assert parse_reply(encode(reply_payload(reply))) == reply


def test_table_lists_each_post_route_once():
    routes = [spec.http_post for spec in OPS.values() if spec.http_post]
    assert len(routes) == len(set(routes))
    shed = {op for op, spec in OPS.items() if spec.shed_when_draining}
    assert shed == {"query", "batch", "topk", "append", "scan"}


def _ok(result):
    return {"v": 1, "id": "r", "ok": True, "result": result}


def _error(**fields):
    return {"v": 1, "id": "r", "ok": False,
            "error": {"kind": "overloaded", "message": "full", **fields}}


@pytest.mark.parametrize(
    "payload",
    [
        _error(retry_after_ms="soon"),
        _error(kind="stale", epoch="4"),
        _error(kind="stale", epoch=4.5),
        _ok({"density": 1.0}),
        _ok({"density": "abc", "interval": None, "flow_value": 0.0,
             "cached": False, "epoch": 0, "elapsed_ms": 0.0}),
        _ok({"results": [{"density": 1.0}], "epoch": 0, "elapsed_ms": 0.0,
             "planner": {}}),
        _ok({"entries": "none", "epoch": 0, "elapsed_ms": 0.0, "cached": False}),
        _ok({"appended": 1, "epoch": None, "invalidated": 0}),
        _ok({"patterns": [{"density": 1.0}]}),
        {"v": 1, "id": 5, "ok": True, "result": {"epoch": 1}},
        b"\xff\xfe",
    ],
)
def test_malformed_replies_raise_protocol_error(payload):
    wire = payload if isinstance(payload, bytes) else encode(payload)
    with pytest.raises(ProtocolError):
        parse_reply(wire)


# ----------------------------------------------------------------------
# HTTP: the route names the op
# ----------------------------------------------------------------------
async def _http(address, method, target, body=b""):
    reader, writer = await asyncio.open_connection(*address)
    head = f"{method} {target} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    status_line, _, rest = raw.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.split(b"\r\n\r\n", 1)[1])


def _body(op, **fields):
    return json.dumps({"v": 1, "id": "x", "op": op, **fields}).encode()


def test_service_refuses_a_body_whose_op_differs_from_the_route(burst_network):
    async def scenario():
        async with BurstingFlowService(burst_network) as service:
            address = await service.start()
            edges_before = burst_network.num_edges
            drained = await _http(address, "POST", "/query", _body("drain"))
            appended = await _http(
                address, "POST", "/patterns",
                _body("append", edges=[["s", "t", 99, 1.0]]),
            )
            return drained, appended, service.draining, edges_before

    drained, appended, draining, edges_before = asyncio.run(scenario())
    for status, payload in (drained, appended):
        assert status == 400
        assert payload["error"]["kind"] == "invalid"
        assert "does not match the route" in payload["error"]["message"]
    assert draining is False
    assert burst_network.num_edges == edges_before
