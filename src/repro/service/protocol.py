"""Versioned JSON wire protocol of the delta-BFlow query service.

One request or reply per message.  Over raw TCP, messages are
newline-delimited JSON objects (NDJSON); over HTTP, the same objects
travel as request/response bodies (see :mod:`repro.service.server` for
the endpoint map).  Every message carries the protocol version ``v`` and
an opaque correlation ``id`` that the server echoes back, so clients may
pipeline requests on one connection.

Requests (``op`` selects the type)::

    {"v": 1, "id": "q1", "op": "query", "source": "s", "sink": "t",
     "delta": 3, "algorithm": "bfq*", "timeout": 5.0}
    {"v": 1, "id": "b1", "op": "batch", "plan": "shared",
     "queries": [["s", "t", 3], ["s", "t", 4], ...]}
    {"v": 1, "id": "k1", "op": "topk", "delta": 3, "k": 10,
     "pairs": [["s", "t"], ["s", "u"], ...]}
    {"v": 1, "id": "a1", "op": "append",
     "edges": [["s", "t", 7, 2.5], ...]}
    {"v": 1, "id": "s1", "op": "scan", "delta": 3, "top": 8,
     "persist": "flagged"}
    {"v": 1, "id": "g1", "op": "patterns", "source": "s",
     "min_density": 1.0, "limit": 50}
    {"v": 1, "id": "m1", "op": "metrics"}
    {"v": 1, "id": "p1", "op": "ping"}
    {"v": 1, "id": "d1", "op": "drain"}

``op: "batch"`` answers many delta-BFlow queries in one round trip;
``plan: "shared"`` (the default) routes the batch through the multi-query
planner — queries grouped by (source, sink) share one window skeleton and
a per-epoch candidate-window Maxflow memo — while ``"independent"``
solves each entry on its own.  ``op: "topk"`` is the first-class top-k
densest-bursts query over a candidate (source, sink) list.  Both carry
the same ``min_epoch`` fence as single queries.

A query may carry ``min_epoch``, the read-your-writes fence: a server
whose epoch is behind it answers with a typed ``stale`` error (carrying
its current ``epoch``) instead of a possibly stale result.  The cluster
coordinator (:mod:`repro.cluster`) stamps every routed query with the
cluster's committed epoch, and per-replica ``AppendReply.epoch`` values
double as the replication acknowledgements.

Request keys a build does not know are ignored, so older clients that
still send ``"kernel"`` or ``"transform"`` get the same answer as
without them.

Replies are either ``{"ok": true, ...}`` payloads or typed errors
``{"ok": false, "error": {"kind": ..., "message": ...}}``.  The error
kinds are a closed set (:data:`ERROR_KINDS`); ``"overloaded"`` is the
load-shedding response required by admission control and carries a
``retry_after_ms`` hint.

Densities and flow values round-trip exactly: Python's ``json`` emits
``repr``-exact doubles, so a served answer compares equal (``==``) to the
in-process :func:`repro.core.engine.find_bursting_flow` answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.exceptions import ReproError
from repro.temporal.edge import NodeId, Timestamp

#: The one protocol version this build speaks.
PROTOCOL_VERSION = 1

#: Closed set of typed error kinds.
ERROR_OVERLOADED = "overloaded"
ERROR_TIMEOUT = "timeout"
ERROR_INVALID = "invalid"
ERROR_UNSUPPORTED_VERSION = "unsupported_version"
ERROR_INTERNAL = "internal"
#: The server's network epoch is behind the ``min_epoch`` the query
#: demanded (read-your-writes).  Retryable: the cluster coordinator
#: re-routes, a direct client waits for replication to catch up.
ERROR_STALE = "stale"
ERROR_KINDS = frozenset(
    {
        ERROR_OVERLOADED,
        ERROR_TIMEOUT,
        ERROR_INVALID,
        ERROR_UNSUPPORTED_VERSION,
        ERROR_INTERNAL,
        ERROR_STALE,
    }
)


class ProtocolError(ReproError):
    """A malformed or unsupported message.

    Attributes:
        kind: the typed error kind to report back
            (``"invalid"`` or ``"unsupported_version"``).
    """

    def __init__(self, message: str, *, kind: str = ERROR_INVALID) -> None:
        super().__init__(message)
        self.kind = kind


class OverloadedError(ReproError):
    """The server shed this request (admission queue full)."""

    def __init__(self, message: str, *, retry_after_ms: int = 100) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class DeadlineExceededError(ReproError):
    """The request's deadline expired before an answer was produced."""


class RemoteServiceError(ReproError):
    """Client-side surfacing of a server-reported ``internal`` error."""


class StaleEpochError(ReproError):
    """The replica's epoch is behind the query's ``min_epoch``.

    Attributes:
        epoch: the replica's current epoch (``-1`` when unknown).
        retry_after_ms: the server's suggested wait before retrying
            (``None`` when the reply carried no hint).
    """

    def __init__(
        self,
        message: str,
        *,
        epoch: int = -1,
        retry_after_ms: int | None = None,
    ) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.retry_after_ms = retry_after_ms


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class QueryRequest:
    """One delta-BFlow query: ``op: "query"``.

    ``min_epoch`` is the read-your-writes fence: a server whose network
    epoch is below it answers with a typed ``stale`` error instead of a
    potentially stale result.  The cluster coordinator stamps it with the
    cluster's committed epoch before routing to a replica.
    """

    id: str
    source: NodeId
    sink: NodeId
    delta: int
    algorithm: str | None = None
    timeout: float | None = None
    min_epoch: int | None = None

    op = "query"


#: Wire-level ``plan`` choices for ``op: "batch"``.
BATCH_PLANS = ("shared", "independent")


@dataclass(frozen=True, slots=True)
class BatchRequest:
    """Many delta-BFlow queries in one round trip: ``op: "batch"``.

    ``queries`` are ``(source, sink, delta)`` triples; the reply's
    ``results`` align with them.  ``plan="shared"`` (default) amortises
    the batch through the planner; ``"independent"`` solves each entry on
    its own.  ``min_epoch`` fences the whole batch at one epoch.
    """

    id: str
    queries: tuple[tuple[NodeId, NodeId, int], ...]
    plan: str = "shared"
    timeout: float | None = None
    min_epoch: int | None = None

    op = "batch"


@dataclass(frozen=True, slots=True)
class TopKRequest:
    """Top-k densest bursts over candidate pairs: ``op: "topk"``.

    Each ``(source, sink)`` pair contributes its delta-BFlow answer;
    entries are ranked by the canonical tie-break (density desc, earlier
    ``tau_s``, shorter interval, input order) and the best ``k`` return.
    """

    id: str
    pairs: tuple[tuple[NodeId, NodeId], ...]
    delta: int
    k: int = 10
    timeout: float | None = None
    min_epoch: int | None = None

    op = "topk"


@dataclass(frozen=True, slots=True)
class AppendRequest:
    """A streaming edge append: ``op: "append"``."""

    id: str
    edges: tuple[tuple[NodeId, NodeId, Timestamp, float], ...]

    op = "append"


#: Wire-level ``persist`` choices for ``op: "scan"`` (mirrors
#: :data:`repro.mining.PERSIST_MODES`).
SCAN_PERSIST_MODES = ("flagged", "all")


@dataclass(frozen=True, slots=True)
class ScanRequest:
    """One mining-funnel scan: ``op: "scan"``.

    Runs the server's :class:`repro.mining.MiningPipeline` — pre-filter,
    confirm through the planner, persist flagged patterns to the durable
    store.  ``pairs`` pins the candidate set explicitly; omitted, the
    pre-filter ranks candidates itself (``top`` emitters x ``top``
    collectors above ``min_volume``).  ``persist="all"`` keeps every
    positive-density confirmation instead of only the flagged outliers.
    """

    id: str
    delta: int
    pairs: tuple[tuple[NodeId, NodeId], ...] | None = None
    top: int | None = None
    min_volume: float | None = None
    persist: str = "flagged"
    timeout: float | None = None
    min_epoch: int | None = None

    op = "scan"


@dataclass(frozen=True, slots=True)
class PatternsRequest:
    """A pattern-store query: ``op: "patterns"``.

    All filters are optional and conjunctive; ``since``/``until`` select
    patterns whose bursting interval intersects ``[since, until]``.
    """

    id: str
    source: NodeId | None = None
    sink: NodeId | None = None
    since: Timestamp | None = None
    until: Timestamp | None = None
    min_density: float | None = None
    limit: int | None = None

    op = "patterns"


@dataclass(frozen=True, slots=True)
class MetricsRequest:
    """A metrics-snapshot request: ``op: "metrics"``."""

    id: str

    op = "metrics"


@dataclass(frozen=True, slots=True)
class PingRequest:
    """A liveness/epoch probe: ``op: "ping"``."""

    id: str

    op = "ping"


@dataclass(frozen=True, slots=True)
class DrainRequest:
    """Begin a graceful drain: ``op: "drain"``.

    The server stops admitting new queries/appends (they get typed
    ``overloaded`` errors) while in-flight work finishes; ``/healthz``
    reports ``draining`` so load balancers take the instance out of
    rotation.  The cluster supervisor sends this before SIGTERM.
    """

    id: str

    op = "drain"


Request = (
    QueryRequest
    | BatchRequest
    | TopKRequest
    | AppendRequest
    | ScanRequest
    | PatternsRequest
    | MetricsRequest
    | PingRequest
    | DrainRequest
)


# ----------------------------------------------------------------------
# Replies
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class QueryReply:
    """A served delta-BFlow answer."""

    id: str
    density: float
    interval: tuple[Timestamp, Timestamp] | None
    flow_value: float
    cached: bool
    epoch: int
    elapsed_ms: float

    ok = True

    @property
    def found(self) -> bool:
        """Whether a positive-density bursting flow exists."""
        return self.interval is not None and self.density > 0


@dataclass(frozen=True, slots=True)
class BatchAnswer:
    """One entry of a :class:`BatchReply` (aligned with the request)."""

    density: float
    interval: tuple[Timestamp, Timestamp] | None
    flow_value: float
    cached: bool


@dataclass(frozen=True, slots=True)
class BatchReply:
    """Served answers for one batch, plus what the planner amortised."""

    id: str
    results: tuple[BatchAnswer, ...]
    epoch: int
    elapsed_ms: float
    planner: Mapping[str, Any]

    ok = True


@dataclass(frozen=True, slots=True)
class TopKBurst:
    """One ranked entry of a :class:`TopKReply`."""

    source: NodeId
    sink: NodeId
    delta: int
    density: float
    interval: tuple[Timestamp, Timestamp]
    flow_value: float


@dataclass(frozen=True, slots=True)
class TopKReply:
    """The k densest bursts over the requested candidate pairs."""

    id: str
    entries: tuple[TopKBurst, ...]
    epoch: int
    elapsed_ms: float
    cached: bool

    ok = True


@dataclass(frozen=True, slots=True)
class AppendReply:
    """Acknowledgement of a streaming append."""

    id: str
    appended: int
    epoch: int
    invalidated: int

    ok = True


@dataclass(frozen=True, slots=True)
class ScanReply:
    """The outcome of one mining-funnel scan."""

    id: str
    new_ids: tuple[str, ...]
    deduped: int
    funnel: Mapping[str, Any]
    epoch: int
    elapsed_ms: float

    ok = True

    @property
    def new(self) -> int:
        """How many previously-unseen patterns this scan persisted."""
        return len(self.new_ids)


@dataclass(frozen=True, slots=True)
class PatternsReply:
    """Matching pattern records (dict form, density-descending)."""

    id: str
    patterns: tuple[Mapping[str, Any], ...]

    ok = True


@dataclass(frozen=True, slots=True)
class MetricsReply:
    """A point-in-time metrics snapshot."""

    id: str
    snapshot: Mapping[str, Any]

    ok = True


@dataclass(frozen=True, slots=True)
class PongReply:
    """Liveness acknowledgement with the current network epoch."""

    id: str
    epoch: int

    ok = True


@dataclass(frozen=True, slots=True)
class DrainReply:
    """Acknowledgement that the server entered (or is in) drain mode."""

    id: str
    draining: bool
    inflight: int

    ok = True


@dataclass(frozen=True, slots=True)
class ErrorReply:
    """A typed failure (:data:`ERROR_KINDS`)."""

    id: str
    kind: str
    message: str
    retry_after_ms: int | None = None
    epoch: int | None = None

    ok = False


Reply = (
    QueryReply
    | BatchReply
    | TopKReply
    | AppendReply
    | ScanReply
    | PatternsReply
    | MetricsReply
    | PongReply
    | DrainReply
    | ErrorReply
)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _require(payload: Mapping[str, Any], key: str) -> Any:
    try:
        return payload[key]
    except KeyError:
        raise ProtocolError(f"missing required field {key!r}") from None


def _check_node(value: Any, key: str) -> NodeId:
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise ProtocolError(
            f"{key} must be a string or integer node id, got {value!r}"
        )
    return value


def _check_delta(value: Any, key: str = "delta") -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ProtocolError(f"{key} must be a positive int, got {value!r}")
    return value


def _parse_timeout(payload: Mapping[str, Any]) -> float | None:
    timeout = payload.get("timeout")
    if timeout is None:
        return None
    if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or timeout <= 0:
        raise ProtocolError(
            f"timeout must be a positive number of seconds, got {timeout!r}"
        )
    return float(timeout)


def _parse_min_epoch(payload: Mapping[str, Any]) -> int | None:
    min_epoch = payload.get("min_epoch")
    if min_epoch is not None and (
        not isinstance(min_epoch, int)
        or isinstance(min_epoch, bool)
        or min_epoch < 0
    ):
        raise ProtocolError(
            f"min_epoch must be a non-negative int, got {min_epoch!r}"
        )
    return min_epoch


def parse_request(raw: bytes | str | Mapping[str, Any]) -> Request:
    """Decode one request message (bytes/str line or a parsed mapping).

    Raises:
        ProtocolError: malformed JSON, wrong version, unknown op, bad
            field types — with ``kind`` set for the typed error reply.
    """
    if isinstance(raw, (bytes, bytearray, str)):
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed JSON: {exc}") from None
    else:
        payload = raw
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"request must be a JSON object, got {payload!r}")

    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})",
            kind=ERROR_UNSUPPORTED_VERSION,
        )
    request_id = payload.get("id", "")
    if not isinstance(request_id, str):
        raise ProtocolError(f"id must be a string, got {request_id!r}")
    op = _require(payload, "op")

    if op == "query":
        delta = _check_delta(_require(payload, "delta"))
        algorithm = payload.get("algorithm")
        if algorithm is not None and not isinstance(algorithm, str):
            raise ProtocolError(f"algorithm must be a string, got {algorithm!r}")
        return QueryRequest(
            id=request_id,
            source=_check_node(_require(payload, "source"), "source"),
            sink=_check_node(_require(payload, "sink"), "sink"),
            delta=delta,
            algorithm=algorithm,
            timeout=_parse_timeout(payload),
            min_epoch=_parse_min_epoch(payload),
        )
    if op == "batch":
        raw_queries = _require(payload, "queries")
        if not isinstance(raw_queries, Sequence) or isinstance(
            raw_queries, (str, bytes)
        ):
            raise ProtocolError(f"queries must be an array, got {raw_queries!r}")
        if not raw_queries:
            raise ProtocolError("queries must not be empty")
        triples = []
        for position, item in enumerate(raw_queries):
            if not isinstance(item, Sequence) or len(item) != 3:
                raise ProtocolError(
                    f"queries[{position}] must be [source, sink, delta], "
                    f"got {item!r}"
                )
            source, sink, delta = item
            triples.append(
                (
                    _check_node(source, f"queries[{position}].source"),
                    _check_node(sink, f"queries[{position}].sink"),
                    _check_delta(delta, f"queries[{position}].delta"),
                )
            )
        plan = payload.get("plan", "shared")
        if plan not in BATCH_PLANS:
            raise ProtocolError(
                f"plan must be one of {', '.join(BATCH_PLANS)}, got {plan!r}"
            )
        return BatchRequest(
            id=request_id,
            queries=tuple(triples),
            plan=plan,
            timeout=_parse_timeout(payload),
            min_epoch=_parse_min_epoch(payload),
        )
    if op == "topk":
        raw_pairs = _require(payload, "pairs")
        if not isinstance(raw_pairs, Sequence) or isinstance(
            raw_pairs, (str, bytes)
        ):
            raise ProtocolError(f"pairs must be an array, got {raw_pairs!r}")
        if not raw_pairs:
            raise ProtocolError("pairs must not be empty")
        pairs = []
        for position, item in enumerate(raw_pairs):
            if not isinstance(item, Sequence) or len(item) != 2:
                raise ProtocolError(
                    f"pairs[{position}] must be [source, sink], got {item!r}"
                )
            source, sink = item
            pairs.append(
                (
                    _check_node(source, f"pairs[{position}].source"),
                    _check_node(sink, f"pairs[{position}].sink"),
                )
            )
        k = payload.get("k", 10)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ProtocolError(f"k must be a positive int, got {k!r}")
        return TopKRequest(
            id=request_id,
            pairs=tuple(pairs),
            delta=_check_delta(_require(payload, "delta")),
            k=k,
            timeout=_parse_timeout(payload),
            min_epoch=_parse_min_epoch(payload),
        )
    if op == "append":
        raw_edges = _require(payload, "edges")
        if not isinstance(raw_edges, Sequence) or isinstance(raw_edges, (str, bytes)):
            raise ProtocolError(f"edges must be an array, got {raw_edges!r}")
        edges = []
        for position, item in enumerate(raw_edges):
            if not isinstance(item, Sequence) or len(item) != 4:
                raise ProtocolError(
                    f"edges[{position}] must be [u, v, tau, capacity], got {item!r}"
                )
            u, v, tau, capacity = item
            if not isinstance(tau, int) or isinstance(tau, bool):
                raise ProtocolError(
                    f"edges[{position}] timestamp must be an int, got {tau!r}"
                )
            if not isinstance(capacity, (int, float)) or isinstance(capacity, bool):
                raise ProtocolError(
                    f"edges[{position}] capacity must be a number, got {capacity!r}"
                )
            edges.append(
                (
                    _check_node(u, f"edges[{position}].u"),
                    _check_node(v, f"edges[{position}].v"),
                    tau,
                    float(capacity),
                )
            )
        return AppendRequest(id=request_id, edges=tuple(edges))
    if op == "scan":
        raw_pairs = payload.get("pairs")
        pairs: tuple[tuple[NodeId, NodeId], ...] | None = None
        if raw_pairs is not None:
            if not isinstance(raw_pairs, Sequence) or isinstance(
                raw_pairs, (str, bytes)
            ):
                raise ProtocolError(f"pairs must be an array, got {raw_pairs!r}")
            if not raw_pairs:
                raise ProtocolError("pairs must not be empty when given")
            parsed = []
            for position, item in enumerate(raw_pairs):
                if not isinstance(item, Sequence) or len(item) != 2:
                    raise ProtocolError(
                        f"pairs[{position}] must be [source, sink], got {item!r}"
                    )
                source, sink = item
                parsed.append(
                    (
                        _check_node(source, f"pairs[{position}].source"),
                        _check_node(sink, f"pairs[{position}].sink"),
                    )
                )
            pairs = tuple(parsed)
        top = payload.get("top")
        if top is not None and (
            not isinstance(top, int) or isinstance(top, bool) or top < 1
        ):
            raise ProtocolError(f"top must be a positive int, got {top!r}")
        min_volume = payload.get("min_volume")
        if min_volume is not None:
            if not isinstance(min_volume, (int, float)) or isinstance(
                min_volume, bool
            ) or min_volume < 0:
                raise ProtocolError(
                    f"min_volume must be a non-negative number, got {min_volume!r}"
                )
            min_volume = float(min_volume)
        persist = payload.get("persist", "flagged")
        if persist not in SCAN_PERSIST_MODES:
            raise ProtocolError(
                f"persist must be one of {', '.join(SCAN_PERSIST_MODES)}, "
                f"got {persist!r}"
            )
        return ScanRequest(
            id=request_id,
            delta=_check_delta(_require(payload, "delta")),
            pairs=pairs,
            top=top,
            min_volume=min_volume,
            persist=persist,
            timeout=_parse_timeout(payload),
            min_epoch=_parse_min_epoch(payload),
        )
    if op == "patterns":
        source = payload.get("source")
        if source is not None:
            source = _check_node(source, "source")
        sink = payload.get("sink")
        if sink is not None:
            sink = _check_node(sink, "sink")
        since = payload.get("since")
        if since is not None and (
            not isinstance(since, int) or isinstance(since, bool)
        ):
            raise ProtocolError(f"since must be an int timestamp, got {since!r}")
        until = payload.get("until")
        if until is not None and (
            not isinstance(until, int) or isinstance(until, bool)
        ):
            raise ProtocolError(f"until must be an int timestamp, got {until!r}")
        min_density = payload.get("min_density")
        if min_density is not None:
            if not isinstance(min_density, (int, float)) or isinstance(
                min_density, bool
            ):
                raise ProtocolError(
                    f"min_density must be a number, got {min_density!r}"
                )
            min_density = float(min_density)
        limit = payload.get("limit")
        if limit is not None and (
            not isinstance(limit, int) or isinstance(limit, bool) or limit < 1
        ):
            raise ProtocolError(f"limit must be a positive int, got {limit!r}")
        return PatternsRequest(
            id=request_id,
            source=source,
            sink=sink,
            since=since,
            until=until,
            min_density=min_density,
            limit=limit,
        )
    if op == "metrics":
        return MetricsRequest(id=request_id)
    if op == "ping":
        return PingRequest(id=request_id)
    if op == "drain":
        return DrainRequest(id=request_id)
    raise ProtocolError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def request_payload(request: Request) -> dict[str, Any]:
    """The JSON-able dict form of a request (client side)."""
    payload: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request.id, "op": request.op}
    if isinstance(request, QueryRequest):
        payload.update(source=request.source, sink=request.sink, delta=request.delta)
        if request.algorithm is not None:
            payload["algorithm"] = request.algorithm
        if request.timeout is not None:
            payload["timeout"] = request.timeout
        if request.min_epoch is not None:
            payload["min_epoch"] = request.min_epoch
    elif isinstance(request, BatchRequest):
        payload["queries"] = [list(triple) for triple in request.queries]
        payload["plan"] = request.plan
        if request.timeout is not None:
            payload["timeout"] = request.timeout
        if request.min_epoch is not None:
            payload["min_epoch"] = request.min_epoch
    elif isinstance(request, TopKRequest):
        payload["pairs"] = [list(pair) for pair in request.pairs]
        payload["delta"] = request.delta
        payload["k"] = request.k
        if request.timeout is not None:
            payload["timeout"] = request.timeout
        if request.min_epoch is not None:
            payload["min_epoch"] = request.min_epoch
    elif isinstance(request, AppendRequest):
        payload["edges"] = [list(edge) for edge in request.edges]
    elif isinstance(request, ScanRequest):
        payload["delta"] = request.delta
        if request.pairs is not None:
            payload["pairs"] = [list(pair) for pair in request.pairs]
        if request.top is not None:
            payload["top"] = request.top
        if request.min_volume is not None:
            payload["min_volume"] = request.min_volume
        payload["persist"] = request.persist
        if request.timeout is not None:
            payload["timeout"] = request.timeout
        if request.min_epoch is not None:
            payload["min_epoch"] = request.min_epoch
    elif isinstance(request, PatternsRequest):
        for key in ("source", "sink", "since", "until", "min_density", "limit"):
            value = getattr(request, key)
            if value is not None:
                payload[key] = value
    return payload


def reply_payload(reply: Reply) -> dict[str, Any]:
    """The JSON-able dict form of a reply (server side)."""
    payload: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": reply.id, "ok": reply.ok}
    if isinstance(reply, QueryReply):
        payload["result"] = {
            "density": reply.density,
            "interval": list(reply.interval) if reply.interval is not None else None,
            "flow_value": reply.flow_value,
            "cached": reply.cached,
            "epoch": reply.epoch,
            "elapsed_ms": reply.elapsed_ms,
        }
    elif isinstance(reply, BatchReply):
        payload["result"] = {
            "results": [
                {
                    "density": entry.density,
                    "interval": (
                        list(entry.interval) if entry.interval is not None else None
                    ),
                    "flow_value": entry.flow_value,
                    "cached": entry.cached,
                }
                for entry in reply.results
            ],
            "epoch": reply.epoch,
            "elapsed_ms": reply.elapsed_ms,
            "planner": dict(reply.planner),
        }
    elif isinstance(reply, TopKReply):
        payload["result"] = {
            "entries": [
                {
                    "source": entry.source,
                    "sink": entry.sink,
                    "delta": entry.delta,
                    "density": entry.density,
                    "interval": list(entry.interval),
                    "flow_value": entry.flow_value,
                }
                for entry in reply.entries
            ],
            "epoch": reply.epoch,
            "elapsed_ms": reply.elapsed_ms,
            "cached": reply.cached,
        }
    elif isinstance(reply, AppendReply):
        payload["result"] = {
            "appended": reply.appended,
            "epoch": reply.epoch,
            "invalidated": reply.invalidated,
        }
    elif isinstance(reply, ScanReply):
        payload["result"] = {
            "new_ids": list(reply.new_ids),
            "deduped": reply.deduped,
            "funnel": dict(reply.funnel),
            "epoch": reply.epoch,
            "elapsed_ms": reply.elapsed_ms,
        }
    elif isinstance(reply, PatternsReply):
        payload["result"] = {
            "patterns": [dict(record) for record in reply.patterns],
        }
    elif isinstance(reply, MetricsReply):
        payload["result"] = dict(reply.snapshot)
    elif isinstance(reply, PongReply):
        payload["result"] = {"epoch": reply.epoch}
    elif isinstance(reply, DrainReply):
        payload["result"] = {
            "draining": reply.draining,
            "inflight": reply.inflight,
        }
    elif isinstance(reply, ErrorReply):
        error: dict[str, Any] = {"kind": reply.kind, "message": reply.message}
        if reply.retry_after_ms is not None:
            error["retry_after_ms"] = reply.retry_after_ms
        if reply.epoch is not None:
            error["epoch"] = reply.epoch
        payload["error"] = error
    return payload


def encode(payload: Mapping[str, Any]) -> bytes:
    """Serialize one message as an NDJSON line (trailing newline included)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def parse_reply(raw: bytes | str | Mapping[str, Any]) -> Reply:
    """Decode one reply message (client side).

    Raises:
        ProtocolError: malformed JSON or a reply shape this client does
            not understand.
    """
    if isinstance(raw, (bytes, bytearray, str)):
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed JSON reply: {exc}") from None
    else:
        payload = raw
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"reply must be a JSON object, got {payload!r}")
    reply_id = payload.get("id", "")
    if payload.get("ok"):
        result = payload.get("result")
        if not isinstance(result, Mapping):
            raise ProtocolError(f"ok reply without result object: {payload!r}")
        if "results" in result:
            entries = result["results"]
            if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
                raise ProtocolError(f"batch reply results must be an array: {payload!r}")
            answers = []
            for entry in entries:
                if not isinstance(entry, Mapping) or "density" not in entry:
                    raise ProtocolError(f"malformed batch answer: {entry!r}")
                interval = entry.get("interval")
                answers.append(
                    BatchAnswer(
                        density=float(entry["density"]),
                        interval=tuple(interval) if interval is not None else None,
                        flow_value=float(entry["flow_value"]),
                        cached=bool(entry.get("cached", False)),
                    )
                )
            planner = result.get("planner")
            return BatchReply(
                id=reply_id,
                results=tuple(answers),
                epoch=int(result.get("epoch", 0)),
                elapsed_ms=float(result.get("elapsed_ms", 0.0)),
                planner=dict(planner) if isinstance(planner, Mapping) else {},
            )
        if "entries" in result:
            entries = result["entries"]
            if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
                raise ProtocolError(f"topk reply entries must be an array: {payload!r}")
            bursts = []
            for entry in entries:
                if not isinstance(entry, Mapping) or "density" not in entry:
                    raise ProtocolError(f"malformed topk entry: {entry!r}")
                bursts.append(
                    TopKBurst(
                        source=entry["source"],
                        sink=entry["sink"],
                        delta=int(entry["delta"]),
                        density=float(entry["density"]),
                        interval=tuple(entry["interval"]),
                        flow_value=float(entry["flow_value"]),
                    )
                )
            return TopKReply(
                id=reply_id,
                entries=tuple(bursts),
                epoch=int(result.get("epoch", 0)),
                elapsed_ms=float(result.get("elapsed_ms", 0.0)),
                cached=bool(result.get("cached", False)),
            )
        if "density" in result:
            interval = result.get("interval")
            return QueryReply(
                id=reply_id,
                density=float(result["density"]),
                interval=tuple(interval) if interval is not None else None,
                flow_value=float(result["flow_value"]),
                cached=bool(result.get("cached", False)),
                epoch=int(result.get("epoch", 0)),
                elapsed_ms=float(result.get("elapsed_ms", 0.0)),
            )
        if "appended" in result:
            return AppendReply(
                id=reply_id,
                appended=int(result["appended"]),
                epoch=int(result["epoch"]),
                invalidated=int(result.get("invalidated", 0)),
            )
        if "funnel" in result:
            new_ids = result.get("new_ids", [])
            if not isinstance(new_ids, Sequence) or isinstance(new_ids, (str, bytes)):
                raise ProtocolError(f"scan reply new_ids must be an array: {payload!r}")
            funnel = result.get("funnel")
            return ScanReply(
                id=reply_id,
                new_ids=tuple(str(pattern_id) for pattern_id in new_ids),
                deduped=int(result.get("deduped", 0)),
                funnel=dict(funnel) if isinstance(funnel, Mapping) else {},
                epoch=int(result.get("epoch", 0)),
                elapsed_ms=float(result.get("elapsed_ms", 0.0)),
            )
        if "patterns" in result:
            records = result["patterns"]
            if not isinstance(records, Sequence) or isinstance(records, (str, bytes)):
                raise ProtocolError(
                    f"patterns reply must carry an array: {payload!r}"
                )
            for record in records:
                if not isinstance(record, Mapping) or "pattern_id" not in record:
                    raise ProtocolError(f"malformed pattern record: {record!r}")
            return PatternsReply(
                id=reply_id,
                patterns=tuple(dict(record) for record in records),
            )
        if tuple(result) == ("epoch",):
            return PongReply(id=reply_id, epoch=int(result["epoch"]))
        if set(result) == {"draining", "inflight"}:
            return DrainReply(
                id=reply_id,
                draining=bool(result["draining"]),
                inflight=int(result.get("inflight", 0)),
            )
        return MetricsReply(id=reply_id, snapshot=dict(result))
    error = payload.get("error")
    if not isinstance(error, Mapping) or "kind" not in error:
        raise ProtocolError(f"error reply without typed error object: {payload!r}")
    return ErrorReply(
        id=reply_id,
        kind=str(error["kind"]),
        message=str(error.get("message", "")),
        retry_after_ms=error.get("retry_after_ms"),
        epoch=error.get("epoch"),
    )


def raise_for_error(reply: Reply) -> Reply:
    """Raise the matching typed exception for an :class:`ErrorReply`.

    Returns the reply unchanged when it is not an error, so the call can
    be chained: ``raise_for_error(parse_reply(line))``.
    """
    if not isinstance(reply, ErrorReply):
        return reply
    if reply.kind == ERROR_OVERLOADED:
        raise OverloadedError(
            reply.message, retry_after_ms=reply.retry_after_ms or 100
        )
    if reply.kind == ERROR_TIMEOUT:
        raise DeadlineExceededError(reply.message)
    if reply.kind == ERROR_STALE:
        raise StaleEpochError(
            reply.message,
            epoch=reply.epoch if reply.epoch is not None else -1,
            retry_after_ms=reply.retry_after_ms,
        )
    if reply.kind in (ERROR_INVALID, ERROR_UNSUPPORTED_VERSION):
        raise ProtocolError(reply.message, kind=reply.kind)
    raise RemoteServiceError(f"[{reply.kind}] {reply.message}")
