"""The golden wire scenario: fixed requests, recorded replies.

Every scenario runs against a real listening port — a mining-enabled
:class:`~repro.service.BurstingFlowService`, or a
:class:`~repro.cluster.ClusterCoordinator` over two
:class:`~repro.cluster.InlineReplica` s — on the planted laundering
network.  The NDJSON scenario sends every op once on one connection,
then one request per ``parse_request`` validation branch, then drains.
The HTTP scenario hits every route (one connection each), including a
404, a malformed request line and a bad ``Content-Length``.

Replies are compared byte for byte after :func:`normalise`, which blanks
only what varies from run to run: ``elapsed_ms`` and the planner's
``solve_seconds`` (wall time), the values of a metrics snapshot (its
top-level keys stay), and an HTTP ``Content-Length`` (it follows the
blanked digits).

Re-record (only when the wire format changes on purpose) with::

    PYTHONPATH=src python -m tests.transcripts.record
"""

from __future__ import annotations

import asyncio
import json
import re
import tempfile
from pathlib import Path
from typing import Any

from repro.cluster import ClusterCoordinator, InlineReplica, seed_log
from repro.mining import MiningPipeline, PatternStore
from repro.service import BurstingFlowService
from repro.store.log import AppendLog
from repro.temporal import TemporalFlowNetwork

from tests.mining.conftest import planted_edges

GOLDEN_DIR = Path(__file__).parent / "golden"
SERVERS = ("service", "cluster")
TRANSPORTS = ("ndjson", "http")


def _line(message: dict[str, Any]) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def _req(op: str, rid: str, **fields: Any) -> bytes:
    return _line({"v": 1, "id": rid, "op": op, **fields})


# ----------------------------------------------------------------------
# NDJSON: every op, then one error per validation branch, then drain
# ----------------------------------------------------------------------
NDJSON_REQUESTS: tuple[bytes, ...] = (
    # one success per op (metrics and drain come later)
    _req("ping", "p1"),
    _req("query", "q1", source="s_star", sink="t_star", delta=4),
    _req("query", "q2", source="s_star", sink="t_star", delta=4,
         algorithm="bfq+", timeout=5.0, min_epoch=0),
    _req("query", "q3", source="u0", sink="v0", delta=8),
    _req("batch", "b1", queries=[["s_star", "t_star", 4], ["u1", "v1", 3]]),
    _req("batch", "b2", queries=[["mid", "t_star", 2]], plan="independent",
         timeout=5.0, min_epoch=0),
    _req("topk", "k1", pairs=[["s_star", "t_star"], ["u2", "v2"],
                              ["mid", "t_star"]], delta=4, k=2),
    _req("scan", "s1", delta=4),
    _req("scan", "s2", delta=4, pairs=[["s_star", "t_star"]], top=3,
         min_volume=0.5, persist="all", timeout=5.0, min_epoch=0),
    _req("patterns", "g1"),
    _req("patterns", "g2", source="s_star", sink="t_star", since=0,
         until=30, min_density=1.0, limit=5),
    _req("append", "a1", edges=[["s_star", "t_star", 41, 7.5],
                                ["u0", "v0", 42, 2]]),
    _req("query", "q4", source="s_star", sink="t_star", delta=4, min_epoch=1),
    _req("metrics", "m1"),
    # handler-level errors
    _req("query", "h1", source="s_star", sink="t_star", delta=4,
         algorithm="nope"),
    _req("query", "h2", source="s_star", sink="t_star", delta=4,
         min_epoch=10**6),
    _req("query", "h3", source="nobody", sink="t_star", delta=4),
    # envelope
    b"{nope\n",
    b"[1, 2]\n",
    _line({"v": 2, "id": "e", "op": "ping"}),
    _line({"id": "e", "op": "ping"}),
    _line({"v": 1, "id": 7, "op": "ping"}),
    _line({"v": 1, "id": "e"}),
    _req("drop-tables", "e"),
    # query
    _req("query", "e", source="s", sink="t"),
    _req("query", "e", source="s", sink="t", delta=0),
    _req("query", "e", source="s", sink="t", delta=True),
    _req("query", "e", source="s", sink="t", delta="2"),
    _req("query", "e", sink="t", delta=1),
    _req("query", "e", source=1.5, sink="t", delta=1),
    _req("query", "e", source="s", sink=None, delta=1),
    _req("query", "e", source="s", sink="t", delta=1, algorithm=3),
    _req("query", "e", source="s", sink="t", delta=1, timeout=0),
    _req("query", "e", source="s", sink="t", delta=1, timeout="fast"),
    _req("query", "e", source="s", sink="t", delta=1, min_epoch=-1),
    _req("query", "e", source="s", sink="t", delta=1, min_epoch=1.5),
    # batch
    _req("batch", "e"),
    _req("batch", "e", queries="abc"),
    _req("batch", "e", queries=[]),
    _req("batch", "e", queries=[["s", "t"]]),
    _req("batch", "e", queries=[5]),
    _req("batch", "e", queries=[[True, "t", 1]]),
    _req("batch", "e", queries=[["s", [], 1]]),
    _req("batch", "e", queries=[["s", "t", 0]]),
    _req("batch", "e", queries=[["s", "t", 1]], plan="greedy"),
    _req("batch", "e", queries=[["s", "t", 1]], plan=None),
    _req("batch", "e", queries=[["s", "t", 1]], timeout=-2),
    _req("batch", "e", queries=[["s", "t", 1]], min_epoch="3"),
    # topk
    _req("topk", "e", delta=2),
    _req("topk", "e", pairs={"s": "t"}, delta=2),
    _req("topk", "e", pairs=[], delta=2),
    _req("topk", "e", pairs=[["s", "t", "u"]], delta=2),
    _req("topk", "e", pairs=[[None, "t"]], delta=2),
    _req("topk", "e", pairs=[["s", 2.5]], delta=2),
    _req("topk", "e", pairs=[["s", "t"]]),
    _req("topk", "e", pairs=[["s", "t"]], delta=-1),
    _req("topk", "e", pairs=[["s", "t"]], delta=2, k=0),
    _req("topk", "e", pairs=[["s", "t"]], delta=2, k=None),
    _req("topk", "e", pairs=[["s", "t"]], delta=2, timeout=False),
    _req("topk", "e", pairs=[["s", "t"]], delta=2, min_epoch=True),
    # append
    _req("append", "e"),
    _req("append", "e", edges="s,t,1,2"),
    _req("append", "e", edges=[["s", "t", 1]]),
    _req("append", "e", edges=[["s", "t", 1.5, 2.0]]),
    _req("append", "e", edges=[["s", "t", True, 2.0]]),
    _req("append", "e", edges=[["s", "t", 1, "2"]]),
    _req("append", "e", edges=[["s", "t", 1, False]]),
    _req("append", "e", edges=[[1.5, "t", 1, 2.0]]),
    _req("append", "e", edges=[["s", None, 1, 2.0]]),
    # scan
    _req("scan", "e"),
    _req("scan", "e", delta=0),
    _req("scan", "e", delta=2, pairs="st"),
    _req("scan", "e", delta=2, pairs=[]),
    _req("scan", "e", delta=2, pairs=[["s"]]),
    _req("scan", "e", delta=2, pairs=[["s", {}]]),
    _req("scan", "e", delta=2, top=0),
    _req("scan", "e", delta=2, top=2.0),
    _req("scan", "e", delta=2, min_volume=-1),
    _req("scan", "e", delta=2, min_volume="big"),
    _req("scan", "e", delta=2, persist="some"),
    _req("scan", "e", delta=2, timeout=[]),
    _req("scan", "e", delta=2, min_epoch=-5),
    # patterns
    _req("patterns", "e", source=1.5),
    _req("patterns", "e", sink=False),
    _req("patterns", "e", since=1.5),
    _req("patterns", "e", until="later"),
    _req("patterns", "e", min_density="dense"),
    _req("patterns", "e", min_density=True),
    _req("patterns", "e", limit=0),
    _req("patterns", "e", limit=2.5),
    # keys a build does not know are ignored; blank lines are skipped
    _req("ping", "p2", kernel="vectorized", transform="object"),
    b"\n",
    _req("metrics", "m2"),
    _req("drain", "d1"),
    _req("ping", "p3"),
    _req("query", "q5", source="s_star", sink="t_star", delta=4),
    _req("append", "a2", edges=[["s_star", "t_star", 43, 1.0]]),
    _req("patterns", "g3", limit=1),
)


# ----------------------------------------------------------------------
# HTTP: every route, one connection each
# ----------------------------------------------------------------------
def _http(method: str, target: str, body: bytes = b"", **headers: str) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: localhost"]
    if body and "content_length" not in headers:
        lines.append(f"Content-Length: {len(body)}")
    for name, value in headers.items():
        lines.append(f"{name.replace('_', '-').title()}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _body(op: str, rid: str, **fields: Any) -> bytes:
    return json.dumps({"v": 1, "id": rid, "op": op, **fields}).encode("utf-8")


HTTP_REQUESTS: tuple[bytes, ...] = (
    _http("GET", "/healthz"),
    _http("GET", "/healthz/"),
    _http("POST", "/query",
          _body("query", "hq1", source="s_star", sink="t_star", delta=4)),
    _http("POST", "/query/",
          _body("query", "hq2", source="s_star", sink="t_star", delta=4)),
    _http("POST", "/batch",
          _body("batch", "hb1", queries=[["s_star", "t_star", 4],
                                         ["u3", "v3", 2]])),
    _http("POST", "/topk",
          _body("topk", "hk1", pairs=[["s_star", "t_star"], ["u4", "v4"]],
                delta=4, k=1)),
    _http("POST", "/scan", _body("scan", "hs1", delta=4)),
    _http("POST", "/patterns", _body("patterns", "hg1", min_density=1.0)),
    _http("GET", "/patterns"),
    _http("GET", "/patterns/"),
    _http("GET", "/patterns?source=s_star&sink=t_star&since=0&until=30"
                 "&min_density=1.5&limit=2"),
    _http("GET", "/patterns?since=soon"),
    _http("GET", "/patterns?limit=0"),
    _http("POST", "/append",
          _body("append", "ha1", edges=[["u5", "v5", 44, 3.0]])),
    _http("POST", "/query",
          _body("query", "hq3", source="s_star", sink="t_star", delta=4,
                min_epoch=10**6)),
    _http("POST", "/query",
          _body("query", "hq4", source="s_star", sink="t_star", delta=4,
                algorithm="nope")),
    _http("POST", "/query", b"{not json"),
    _http("POST", "/query"),
    _http("POST", "/batch", _body("batch", "hb2", queries=[])),
    _http("GET", "/metrics"),
    _http("GET", "/metrics/"),
    _http("GET", "/nowhere"),
    _http("GET", "/query"),
    _http("PUT", "/query", _body("ping", "x")),
    _http("DELETE", "/metrics"),
    _http("HEAD", "/healthz"),
    b"GET /metrics\r\n\r\n",
    _http("POST", "/query", b"{}", content_length="lots"),
    _http("POST", "/drain"),
    _http("POST", "/drain/"),
    _http("GET", "/healthz"),
    _http("POST", "/query",
          _body("query", "hq5", source="s_star", sink="t_star", delta=4)),
    _http("POST", "/patterns", _body("patterns", "hg2", limit=1)),
)

SCENARIOS = {"ndjson": NDJSON_REQUESTS, "http": HTTP_REQUESTS}


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------
class _Booted:
    """A started server plus the resources to release after the run."""

    def __init__(self, server, address, closers) -> None:
        self.server = server
        self.address = address
        self.closers = closers

    async def stop(self) -> None:
        await self.server.stop()
        for close in self.closers:
            close()


async def boot(kind: str, workdir: Path) -> _Booted:
    """Start a fresh ``kind`` server (``service`` or ``cluster``)."""
    if kind == "service":
        network = TemporalFlowNetwork.from_tuples(planted_edges())
        store = PatternStore(workdir / "patterns")
        service = BurstingFlowService(
            network, mining=MiningPipeline(network, store)
        )
        return _Booted(service, await service.start(), [store.close])
    log_path = workdir / "cluster.log"
    log = AppendLog(log_path)
    try:
        seed_log(log, planted_edges())
    finally:
        log.close()
    coordinator = ClusterCoordinator(
        log_path,
        [InlineReplica(f"r{i}", log_path) for i in range(2)],
        patterns_dir=workdir / "patterns",
        health_interval=3600.0,
    )
    return _Booted(coordinator, await coordinator.start(), [])


async def _exchange_ndjson(address, requests) -> list[tuple[bytes, bytes]]:
    reader, writer = await asyncio.open_connection(*address)
    exchanges = []
    try:
        for request in requests:
            writer.write(request)
            await writer.drain()
            reply = b"" if not request.strip() else await reader.readline()
            exchanges.append((request, reply))
    finally:
        writer.close()
        await writer.wait_closed()
    return exchanges


async def _exchange_http(address, requests) -> list[tuple[bytes, bytes]]:
    exchanges = []
    for request in requests:
        reader, writer = await asyncio.open_connection(*address)
        try:
            writer.write(request)
            await writer.drain()
            reply = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        exchanges.append((request, reply))
    return exchanges


def run_scenario(kind: str, transport: str) -> list[tuple[bytes, bytes]]:
    """Boot a fresh ``kind`` server and play one scenario against it."""

    async def play():
        with tempfile.TemporaryDirectory() as workdir:
            booted = await boot(kind, Path(workdir))
            try:
                exchange = (
                    _exchange_ndjson if transport == "ndjson" else _exchange_http
                )
                return await exchange(booted.address, SCENARIOS[transport])
            finally:
                await booted.stop()

    return asyncio.run(play())


# ----------------------------------------------------------------------
# Normalisation and the golden files
# ----------------------------------------------------------------------
_TIMING = re.compile(rb'("(?:elapsed_ms|solve_seconds)":\s?)-?[0-9][0-9.eE+-]*')
_CONTENT_LENGTH = re.compile(rb"Content-Length: \d+")


def _blank_snapshot(text: bytes, separators: tuple[str, str]) -> bytes:
    snapshot = json.loads(text)
    return json.dumps(dict.fromkeys(snapshot), separators=separators).encode()


def normalise(request: bytes, reply: bytes) -> bytes:
    """Blank what varies between runs (see the module docstring)."""
    reply = _TIMING.sub(rb"\g<1>0", reply)
    if request.startswith(b"GET /metrics") and reply.startswith(b"HTTP/1.1 200"):
        head, body = reply.split(b"\r\n\r\n", 1)
        reply = head + b"\r\n\r\n" + _blank_snapshot(body, (", ", ": "))
    elif b'"op":"metrics"' in request and reply.startswith(b'{"v":1'):
        marker = b'"result":'
        start = reply.index(marker) + len(marker)
        reply = (
            reply[:start] + _blank_snapshot(reply[start:-2], (",", ":"))
            + reply[-2:]
        )
    return _CONTENT_LENGTH.sub(b"Content-Length: N", reply)


def golden_path(kind: str, transport: str) -> Path:
    return GOLDEN_DIR / f"{kind}_{transport}.jsonl"


def dump(exchanges: list[tuple[bytes, bytes]]) -> str:
    """One ``{"send": ..., "recv": ...}`` JSON object per exchange."""
    return "".join(
        json.dumps(
            {
                "send": request.decode("latin-1"),
                "recv": normalise(request, reply).decode("latin-1"),
            }
        )
        + "\n"
        for request, reply in exchanges
    )


def load(kind: str, transport: str) -> list[dict[str, str]]:
    text = golden_path(kind, transport).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]
