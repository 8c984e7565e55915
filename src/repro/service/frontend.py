"""The NDJSON/HTTP front end shared by the service and the coordinator.

:class:`WireFrontEnd` serves the wire protocol (:mod:`repro.service.protocol`)
for :class:`~repro.service.BurstingFlowService` and
:class:`~repro.cluster.ClusterCoordinator`: both transports on one
listening port, told apart by the connection's first line.

* **NDJSON over TCP** — one JSON request per line, replies in request
  order on the same connection.
* **HTTP/1.1** — one request per connection (``Connection: close``):

  - ``POST`` on an op's route in :data:`~repro.service.protocol.OPS`
    (``/query``, ``/batch``, ...): the body is that op's request, and
    a body naming a different op gets a typed ``invalid`` error.  An
    op whose request carries nothing but an id (``POST /drain``) reads
    no body and answers with its bare result;
  - ``GET /metrics``: the ``metrics`` op's result (the snapshot);
  - ``GET /patterns?source=...&limit=...``: the ``patterns`` op, its
    filters taken from the query string;
  - ``GET /healthz``: the server's health payload, ``503`` when not ok.

  A route may carry one trailing ``/``; only ``GET /patterns`` reads a
  query string.  Replies are the protocol's reply objects; typed errors
  map to HTTP statuses (``overloaded`` 429, ``timeout`` 408, ``stale``
  503, ``internal`` 500, others 400).

Both servers also build the mining ops' replies here, from their
:class:`~repro.mining.MiningPipeline`: the ``patterns`` op whole, and a
``scan``'s reply from its outcome.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.parse
from dataclasses import fields
from typing import TYPE_CHECKING, Any

from repro.exceptions import ReproError
from repro.service.protocol import (
    ERROR_INTERNAL,
    ERROR_INVALID,
    ERROR_OVERLOADED,
    ERROR_STALE,
    ERROR_TIMEOUT,
    OPS,
    ErrorReply,
    MetricsRequest,
    PatternsReply,
    PatternsRequest,
    ProtocolError,
    Reply,
    Request,
    ScanReply,
    encode,
    parse_request,
    reply_payload,
)

if TYPE_CHECKING:
    from repro.mining.pipeline import MiningPipeline, ScanOutcome

_HTTP_METHODS = (b"GET", b"POST", b"HEAD", b"PUT", b"DELETE")
_POST_ROUTES = {spec.http_post: spec for spec in OPS.values() if spec.http_post}
_PATTERNS_ROUTE = OPS["patterns"].http_post


class WireFrontEnd:
    """Serves the wire protocol on one port for a request handler.

    Subclasses implement :meth:`handle_request` (the op dispatch) and
    :meth:`health_payload` (the ``/healthz`` body), and may count
    messages that fail to parse in :meth:`_count_protocol_error`.  Both
    servers answer the mining ops from a :attr:`mining` pipeline
    through :meth:`_mining_disabled`, :meth:`_scan_reply` and
    :meth:`_handle_patterns`.
    """

    _server: asyncio.base_events.Server | None = None
    #: The pipeline behind the ``scan``/``patterns`` ops; ``None``
    #: answers both with :meth:`_mining_disabled`.
    mining: MiningPipeline | None = None
    #: Where mining is off and how to turn it on, for that error.
    _mining_off = "server (start it with a pattern store)"

    async def handle_request(self, request: Request) -> Reply:
        raise NotImplementedError

    def health_payload(self) -> dict[str, Any]:
        raise NotImplementedError

    def _count_protocol_error(self, kind: str) -> None:
        """Called with the error kind of every message that fails to parse."""

    async def handle_raw(self, line: bytes | str, op: str | None = None) -> bytes:
        """Full serve path for one wire message: parse → handle → encode.

        ``op`` is the op an HTTP route serves; a message naming another
        op is refused as ``invalid`` before it reaches the handler.
        """
        try:
            request = parse_request(line)
            if op is not None and request.op != op:
                raise ProtocolError(
                    f"op {request.op!r} does not match the route's op {op!r}"
                )
        except ProtocolError as exc:
            self._count_protocol_error(exc.kind)
            return encode(reply_payload(ErrorReply("", exc.kind, str(exc))))
        return encode(reply_payload(await self.handle_request(request)))

    # ------------------------------------------------------------------
    # Mining ops
    # ------------------------------------------------------------------
    def _mining_disabled(self, request_id: str) -> ErrorReply:
        return ErrorReply(
            request_id,
            ERROR_INVALID,
            f"mining is not enabled on this {self._mining_off}",
        )

    @staticmethod
    def _scan_reply(
        request_id: str, outcome: ScanOutcome, started: float
    ) -> ScanReply:
        return ScanReply(
            id=request_id,
            new_ids=tuple(outcome.new_ids),
            deduped=outcome.deduped,
            funnel=outcome.funnel.as_dict(),
            epoch=outcome.epoch,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )

    def _handle_patterns(self, request: PatternsRequest) -> Reply:
        """The ``patterns`` op.  The pattern store is internally locked
        and the query is a pure read — no admission ticket or network
        lock is needed."""
        if self.mining is None:
            return self._mining_disabled(request.id)
        try:
            records = self.mining.patterns(
                source=request.source,
                sink=request.sink,
                since=request.since,
                until=request.until,
                min_density=request.min_density,
                limit=request.limit,
            )
        except ReproError as exc:
            return ErrorReply(request.id, ERROR_INVALID, str(exc))
        return PatternsReply(
            id=request.id,
            patterns=tuple(record.as_dict() for record in records),
        )

    # ------------------------------------------------------------------
    # Listener
    # ------------------------------------------------------------------
    async def _listen(self, host: str, port: int) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._on_connection, host, port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start`` must have been called)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.split(b" ", 1)[0] in _HTTP_METHODS:
                await self._serve_http(first, reader, writer)
                return
            # NDJSON: the sniffed line is already the first request.
            line = first
            while line:
                if line.strip():
                    writer.write(await self.handle_raw(line))
                    await writer.drain()
                line = await reader.readline()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # The listener closed while this connection was draining;
                # the transport is already gone.
                pass

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------
    async def _serve_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            method, target, _ = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            _http_respond(writer, 400, {"error": "malformed request line"})
            await writer.drain()
            return
        content_length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    _http_respond(writer, 400, {"error": "bad Content-Length"})
                    await writer.drain()
                    return
        body = await reader.readexactly(content_length) if content_length else b""

        route = target[:-1] if target.endswith("/") else target
        spec = _POST_ROUTES.get(route) if method == "POST" else None
        if method == "GET" and route == "/healthz":
            health = self.health_payload()
            _http_respond(writer, 200 if health["ok"] else 503, health)
        elif method == "GET" and route == "/metrics":
            reply = await self.handle_request(MetricsRequest(id="http"))
            _http_reply(writer, reply_payload(reply), bare=True)
        elif method == "GET" and (
            route == _PATTERNS_ROUTE or target.startswith(_PATTERNS_ROUTE + "?")
        ):
            message = _patterns_message(target.partition("?")[2])
            _http_reply(writer, json.loads(await self.handle_raw(encode(message))))
        elif spec is not None and len(fields(spec.request)) == 1:
            # The request is only an id (drain): no body to read, and the
            # answer is the bare result, like GET /metrics.
            reply = await self.handle_request(spec.request(id="http"))
            _http_reply(writer, reply_payload(reply), bare=True)
        elif spec is not None:
            payload = json.loads(await self.handle_raw(body, spec.request.op))
            _http_reply(writer, payload)
        else:
            _http_respond(writer, 404, {"error": f"no route {method} {target}"})
        await writer.drain()


_QUERY_COERCIONS = {"since": int, "until": int, "limit": int, "min_density": float}


def _patterns_message(query: str) -> dict[str, Any]:
    """Translate a ``GET /patterns`` query string into a ``patterns`` message.

    Query-string values arrive as strings; numeric filters are coerced
    (``since``/``until``/``limit`` to int, ``min_density`` to float) and
    left as-is otherwise so :func:`parse_request` reports the type error
    through the ordinary typed-reply path.
    """
    message: dict[str, Any] = {"v": 1, "id": "http", "op": "patterns"}
    for key, values in urllib.parse.parse_qs(query).items():
        value: Any = values[-1]
        if key in _QUERY_COERCIONS:
            try:
                value = _QUERY_COERCIONS[key](value)
            except ValueError:
                pass
        message[key] = value
    return message


_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_ERROR_STATUS = {
    ERROR_OVERLOADED: 429,
    ERROR_TIMEOUT: 408,
    ERROR_INTERNAL: 500,
    ERROR_STALE: 503,
}


def _http_reply(
    writer: asyncio.StreamWriter, payload: dict[str, Any], *, bare: bool = False
) -> None:
    """Send a reply payload: ``bare`` sends an ok reply's result alone."""
    if payload.get("ok"):
        _http_respond(writer, 200, payload["result"] if bare else payload)
    else:
        _http_respond(writer, _ERROR_STATUS.get(payload["error"]["kind"], 400), payload)


def _http_respond(
    writer: asyncio.StreamWriter, status: int, payload: dict[str, Any]
) -> None:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
