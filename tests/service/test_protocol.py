"""Tests for the versioned JSON wire protocol."""

import asyncio
import json

import pytest

from repro.service import BurstingFlowService
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AppendReply,
    AppendRequest,
    DeadlineExceededError,
    ErrorReply,
    MetricsRequest,
    OverloadedError,
    PingRequest,
    PongReply,
    ProtocolError,
    QueryReply,
    QueryRequest,
    RemoteServiceError,
    encode,
    parse_reply,
    parse_request,
    raise_for_error,
    reply_payload,
    request_payload,
)


class TestRequestRoundTrip:
    def test_query_round_trips(self):
        request = QueryRequest(
            id="q1", source="s", sink="t", delta=3,
            algorithm="bfq*", timeout=5.0,
        )
        line = encode(request_payload(request))
        assert line.endswith(b"\n")
        assert parse_request(line) == request

    def test_query_defaults_omitted_on_wire(self):
        request = QueryRequest(id="q2", source=1, sink=2, delta=1)
        payload = request_payload(request)
        assert "algorithm" not in payload
        assert "kernel" not in payload
        assert "timeout" not in payload
        assert parse_request(payload) == request

    def test_append_round_trips(self):
        request = AppendRequest(id="a1", edges=(("s", "t", 7, 2.5),))
        assert parse_request(encode(request_payload(request))) == request

    def test_metrics_and_ping_round_trip(self):
        for request in (MetricsRequest(id="m"), PingRequest(id="p")):
            assert parse_request(encode(request_payload(request))) == request


class TestRequestValidation:
    def test_wrong_version_is_typed(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"v": 99, "op": "ping", "id": "x"})
        assert excinfo.value.kind == "unsupported_version"

    def test_missing_version_is_typed(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"op": "ping", "id": "x"})
        assert excinfo.value.kind == "unsupported_version"

    def test_malformed_json(self):
        with pytest.raises(ProtocolError):
            parse_request(b"{nope\n")

    def test_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request({"v": PROTOCOL_VERSION, "op": "drop-tables", "id": ""})

    @pytest.mark.parametrize("delta", [0, -3, 1.5, True, "2"])
    def test_bad_delta(self, delta):
        with pytest.raises(ProtocolError, match="delta"):
            parse_request(
                {"v": PROTOCOL_VERSION, "op": "query", "id": "",
                 "source": "s", "sink": "t", "delta": delta}
            )

    def test_missing_source(self):
        with pytest.raises(ProtocolError, match="source"):
            parse_request(
                {"v": PROTOCOL_VERSION, "op": "query", "id": "",
                 "sink": "t", "delta": 1}
            )

    @pytest.mark.parametrize("timeout", [0, -1, "fast", False])
    def test_bad_timeout(self, timeout):
        with pytest.raises(ProtocolError, match="timeout"):
            parse_request(
                {"v": PROTOCOL_VERSION, "op": "query", "id": "",
                 "source": "s", "sink": "t", "delta": 1,
                 "timeout": timeout}
            )

    def test_bad_append_edge_shape(self):
        with pytest.raises(ProtocolError, match=r"edges\[0\]"):
            parse_request(
                {"v": PROTOCOL_VERSION, "op": "append", "id": "",
                 "edges": [["s", "t", 1]]}
            )

    def test_bad_append_timestamp(self):
        with pytest.raises(ProtocolError, match="timestamp"):
            parse_request(
                {"v": PROTOCOL_VERSION, "op": "append", "id": "",
                 "edges": [["s", "t", 1.5, 2.0]]}
            )


class TestWireCompatibility:
    def test_legacy_kernel_and_transform_keys_are_ignored(self, burst_network):
        # Old clients may still send the removed kernel/transform keys.
        query = {
            "v": PROTOCOL_VERSION, "id": "q", "op": "query",
            "source": "s", "sink": "t", "delta": 2,
        }
        legacy = {**query, "kernel": "vectorized", "transform": "object"}
        assert parse_request(legacy) == parse_request(query)

        async def serve(payload):
            async with BurstingFlowService(burst_network) as service:
                return parse_reply(await service.handle_raw(encode(payload)))

        plain_reply = asyncio.run(serve(query))
        legacy_reply = asyncio.run(serve(legacy))
        assert isinstance(legacy_reply, QueryReply)
        assert (
            legacy_reply.density, legacy_reply.interval, legacy_reply.flow_value,
            legacy_reply.cached, legacy_reply.epoch,
        ) == (
            plain_reply.density, plain_reply.interval, plain_reply.flow_value,
            plain_reply.cached, plain_reply.epoch,
        )


class TestReplyRoundTrip:
    def test_query_reply_floats_are_exact(self):
        # JSON emits repr-exact doubles, so a served density compares ==
        # to the in-process engine answer — the acceptance criterion.
        reply = QueryReply(
            id="q1", density=900.0 / 7.0, interval=(10, 13),
            flow_value=0.1 + 0.2, cached=False, epoch=4, elapsed_ms=1.25,
        )
        parsed = parse_reply(encode(reply_payload(reply)))
        assert parsed.density == reply.density
        assert parsed.flow_value == reply.flow_value
        assert parsed.interval == (10, 13)
        assert parsed.cached is False
        assert parsed.epoch == 4

    def test_not_found_reply(self):
        reply = QueryReply(
            id="q", density=0.0, interval=None, flow_value=0.0,
            cached=False, epoch=0, elapsed_ms=0.0,
        )
        parsed = parse_reply(encode(reply_payload(reply)))
        assert parsed.interval is None
        assert not parsed.found

    def test_append_and_pong_round_trip(self):
        append = AppendReply(id="a", appended=3, epoch=9, invalidated=2)
        assert parse_reply(encode(reply_payload(append))) == append
        pong = PongReply(id="p", epoch=9)
        assert parse_reply(encode(reply_payload(pong))) == pong

    def test_error_reply_round_trips(self):
        reply = ErrorReply(id="e", kind="overloaded", message="full",
                           retry_after_ms=50)
        parsed = parse_reply(encode(reply_payload(reply)))
        assert parsed == reply

    def test_wire_is_single_line(self):
        payload = reply_payload(
            ErrorReply(id="e", kind="invalid", message="bad\nnews")
        )
        line = encode(payload)
        assert line.count(b"\n") == 1  # the terminator only
        assert json.loads(line)["error"]["message"] == "bad\nnews"


class TestRaiseForError:
    def test_ok_reply_passes_through(self):
        pong = PongReply(id="p", epoch=1)
        assert raise_for_error(pong) is pong

    def test_overloaded_raises_with_hint(self):
        with pytest.raises(OverloadedError) as excinfo:
            raise_for_error(ErrorReply("", "overloaded", "full", 75))
        assert excinfo.value.retry_after_ms == 75

    def test_timeout_raises_deadline(self):
        with pytest.raises(DeadlineExceededError):
            raise_for_error(ErrorReply("", "timeout", "late"))

    def test_invalid_raises_protocol(self):
        with pytest.raises(ProtocolError):
            raise_for_error(ErrorReply("", "invalid", "bad"))

    def test_internal_raises_remote(self):
        with pytest.raises(RemoteServiceError):
            raise_for_error(ErrorReply("", "internal", "boom"))
