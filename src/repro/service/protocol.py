"""Versioned JSON wire protocol of the delta-BFlow query service.

One request or reply per message.  Over raw TCP, messages are
newline-delimited JSON objects (NDJSON); over HTTP, the same objects
travel as request/response bodies (see :mod:`repro.service.frontend` for
the endpoint map).  Every message carries the protocol version ``v`` and
an opaque correlation ``id`` that the server echoes back, so clients may
pipeline requests on one connection.

:data:`OPS` is the one table of ops: each op's request and reply
dataclasses, its HTTP ``POST`` route and whether a draining server sheds
it.  The codecs walk the dataclasses' fields: the encoders emit them in
declaration order (``None`` request fields omitted), and the decoders
check each field with the one checker its name maps to.

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
answers each entry as a ``query`` with the server's default algorithm.  ``op: "topk"`` is the first-class top-k
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
from collections.abc import Callable, Mapping, Sequence
from dataclasses import MISSING, dataclass, fields
from typing import Any

from repro.core.planner import BurstEntry
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
    the batch through the planner; ``"independent"`` answers each entry
    as a ``query`` with the server's default algorithm (same solve, same
    cache entry).  ``min_epoch`` fences the whole batch at one epoch.
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
class TopKReply:
    """The k densest bursts over the requested candidate pairs."""

    id: str
    entries: tuple[BurstEntry, ...]
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
# The op table
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class OpSpec:
    """One wire op: what more than one layer needs to know about it.

    Attributes:
        request: the op's request dataclass (its ``op`` names the op).
        reply: the dataclass of its success reply.
        http_post: the HTTP ``POST`` route serving the op, or ``None``.
        shed_when_draining: whether a draining server refuses the op
            with a typed ``overloaded`` error.
    """

    request: type
    reply: type
    http_post: str | None = None
    shed_when_draining: bool = False


#: Every wire op by name: the one list of ops, of their HTTP ``POST``
#: routes and of the ops a draining server sheds.
OPS: dict[str, OpSpec] = {
    spec.request.op: spec
    for spec in (
        OpSpec(QueryRequest, QueryReply, "/query", shed_when_draining=True),
        OpSpec(BatchRequest, BatchReply, "/batch", shed_when_draining=True),
        OpSpec(TopKRequest, TopKReply, "/topk", shed_when_draining=True),
        OpSpec(AppendRequest, AppendReply, "/append", shed_when_draining=True),
        OpSpec(ScanRequest, ScanReply, "/scan", shed_when_draining=True),
        OpSpec(PatternsRequest, PatternsReply, "/patterns"),
        OpSpec(MetricsRequest, MetricsReply),
        OpSpec(PingRequest, PongReply),
        OpSpec(DrainRequest, DrainReply, "/drain"),
    )
}

#: Field names per wire dataclass, in declaration (= wire key) order.
_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(spec.name for spec in fields(cls))
    for cls in (
        *(op.request for op in OPS.values()),
        *(op.reply for op in OPS.values()),
        BatchAnswer,
        BurstEntry,
        ErrorReply,
    )
}


# ----------------------------------------------------------------------
# Field checkers (shared by every message that carries the field)
# ----------------------------------------------------------------------
# Each check tries the exact type JSON decodes to before the general one.
def _is_int(value: Any) -> bool:
    return type(value) is int or (
        isinstance(value, int) and not isinstance(value, bool)
    )


def _is_number(value: Any) -> bool:
    return type(value) is float or _is_int(value) or isinstance(value, float)


def _is_sequence(value: Any) -> bool:
    return type(value) is list or isinstance(value, Sequence)


def _is_mapping(value: Any) -> bool:
    return type(value) is dict or isinstance(value, Mapping)


def _node(value: Any, key: str) -> NodeId:
    if not (type(value) is str or _is_int(value) or isinstance(value, str)):
        raise ProtocolError(
            f"{key} must be a string or integer node id, got {value!r}"
        )
    return value


def _positive_int(value: Any, key: str) -> int:
    if not _is_int(value) or value < 1:
        raise ProtocolError(f"{key} must be a positive int, got {value!r}")
    return value


def _non_negative_int(value: Any, key: str) -> int:
    if not _is_int(value) or value < 0:
        raise ProtocolError(f"{key} must be a non-negative int, got {value!r}")
    return value


def _int(value: Any, key: str) -> int:
    if not _is_int(value):
        raise ProtocolError(f"{key} must be an int, got {value!r}")
    return value


def _timestamp(value: Any, key: str) -> Timestamp:
    if not _is_int(value):
        raise ProtocolError(f"{key} must be an int timestamp, got {value!r}")
    return value


def _number(value: Any, key: str) -> float:
    if not _is_number(value):
        raise ProtocolError(f"{key} must be a number, got {value!r}")
    return float(value)


def _non_negative_number(value: Any, key: str) -> float:
    if not _is_number(value) or value < 0:
        raise ProtocolError(
            f"{key} must be a non-negative number, got {value!r}"
        )
    return float(value)


def _timeout(value: Any, key: str) -> float:
    if not _is_number(value) or value <= 0:
        raise ProtocolError(
            f"{key} must be a positive number of seconds, got {value!r}"
        )
    return float(value)


def _string(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise ProtocolError(f"{key} must be a string, got {value!r}")
    return value


def _bool(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError(f"{key} must be a bool, got {value!r}")
    return value


def _object(value: Any, key: str) -> dict[str, Any]:
    if not _is_mapping(value):
        raise ProtocolError(f"{key} must be an object, got {value!r}")
    return dict(value)


def _array(value: Any, key: str) -> Sequence[Any]:
    if not _is_sequence(value) or isinstance(value, (str, bytes)):
        raise ProtocolError(f"{key} must be an array, got {value!r}")
    return value


def _choice(options: tuple[str, ...]) -> Callable[[Any, str], str]:
    def check(value: Any, key: str) -> str:
        if value not in options:
            raise ProtocolError(
                f"{key} must be one of {', '.join(options)}, got {value!r}"
            )
        return value

    return check


def _rows(shape: str, *columns: tuple[str, Callable]) -> Callable:
    """An array of fixed-width rows; ``columns`` are ``(suffix, checker)``
    pairs and a cell's key is ``key[i]`` plus its column's suffix."""

    def check(value: Any, key: str) -> tuple[tuple, ...]:
        rows = []
        for position, row in enumerate(_array(value, key)):
            if not _is_sequence(row) or len(row) != len(columns):
                raise ProtocolError(
                    f"{key}[{position}] must be {shape}, got {row!r}"
                )
            rows.append(
                tuple(
                    [
                        column(cell, f"{key}[{position}]{suffix}")
                        for cell, (suffix, column) in zip(row, columns)
                    ]
                )
            )
        return tuple(rows)

    return check


def _interval(value: Any, key: str) -> tuple[Timestamp, Timestamp] | None:
    if value is None:
        return None
    if not _is_sequence(value) or len(value) != 2:
        raise ProtocolError(f"{key} must be [start, end] or null, got {value!r}")
    return (_timestamp(value[0], f"{key}[0]"), _timestamp(value[1], f"{key}[1]"))


def _strings(value: Any, key: str) -> tuple[str, ...]:
    return tuple(
        _string(item, f"{key}[{position}]")
        for position, item in enumerate(_array(value, key))
    )


def _records(cls: type) -> Callable[[Any, str], tuple]:
    """An array of ``cls`` objects, each decoded field by field."""

    def check(value: Any, key: str) -> tuple:
        records = []
        for position, item in enumerate(_array(value, key)):
            try:
                if not _is_mapping(item):
                    raise ProtocolError(f"must be an object, got {item!r}")
                records.append(cls(**_decode(cls, item)))
            except ProtocolError as exc:
                raise ProtocolError(f"{key}[{position}]: {exc}") from None
        return tuple(records)

    return check


def _pattern_records(value: Any, key: str) -> tuple[dict[str, Any], ...]:
    records = tuple(
        _object(item, f"{key}[{i}]") for i, item in enumerate(_array(value, key))
    )
    for position, record in enumerate(records):
        if "pattern_id" not in record:
            raise ProtocolError(f"{key}[{position}] has no pattern_id: {record!r}")
    return records


#: The checker of every wire field, by field name, across all messages.
_CHECKS: dict[str, Callable[[Any, str], Any]] = {
    # requests
    "source": _node,
    "sink": _node,
    "delta": _positive_int,
    "algorithm": _string,
    "timeout": _timeout,
    "min_epoch": _non_negative_int,
    "queries": _rows(
        "[source, sink, delta]",
        (".source", _node),
        (".sink", _node),
        (".delta", _positive_int),
    ),
    "plan": _choice(BATCH_PLANS),
    "pairs": _rows("[source, sink]", (".source", _node), (".sink", _node)),
    "k": _positive_int,
    "edges": _rows(
        "[u, v, tau, capacity]",
        (".u", _node),
        (".v", _node),
        (" timestamp", _int),
        (" capacity", _number),
    ),
    "top": _positive_int,
    "min_volume": _non_negative_number,
    "persist": _choice(SCAN_PERSIST_MODES),
    "since": _timestamp,
    "until": _timestamp,
    "min_density": _number,
    "limit": _positive_int,
    # replies
    "density": _number,
    "interval": _interval,
    "flow_value": _number,
    "cached": _bool,
    "epoch": _non_negative_int,
    "elapsed_ms": _number,
    "results": _records(BatchAnswer),
    "planner": _object,
    "entries": _records(BurstEntry),
    "appended": _non_negative_int,
    "invalidated": _non_negative_int,
    "new_ids": _strings,
    "deduped": _non_negative_int,
    "funnel": _object,
    "patterns": _pattern_records,
    "draining": _bool,
    "inflight": _non_negative_int,
    "kind": _string,
    "message": _string,
    "retry_after_ms": _non_negative_int,
}

#: Array fields that must hold at least one row.
_NON_EMPTY = frozenset({"queries", "pairs"})

#: Per dataclass: ``(name, checker, default, empty)`` for every field
#: but ``id``; ``empty`` is the error for an empty array, if refused.
_DECODERS: dict[type, tuple[tuple[str, Callable, Any, str | None], ...]] = {
    cls: tuple(
        (
            spec.name,
            _CHECKS[spec.name],
            spec.default,
            (
                f"{spec.name} must not be empty"
                + ("" if spec.default is MISSING else " when given")
                if spec.name in _NON_EMPTY
                else None
            ),
        )
        for spec in fields(cls)
        if spec.name != "id"
    )
    for cls in _FIELDS
    if cls is not MetricsReply
}


def _decode(cls: type, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Check every field of ``cls`` present in ``payload``.

    A missing field, or a ``null`` one whose default is ``None``, takes
    its dataclass default; a field without a default is required.
    """
    values: dict[str, Any] = {}
    for name, check, default, empty in _DECODERS[cls]:
        value = payload.get(name)
        if value is None and (default is None or name not in payload):
            if default is MISSING:
                raise ProtocolError(f"missing required field {name!r}")
            continue
        value = values[name] = check(value, name)
        if empty is not None and not value:
            raise ProtocolError(empty)
    return values


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _load(raw: bytes | str | Mapping[str, Any], what: str) -> Mapping[str, Any]:
    if isinstance(raw, (bytes, bytearray, str)):
        try:
            raw = json.loads(raw)
        except ValueError as exc:
            raise ProtocolError(f"malformed JSON: {exc}") from None
    if not isinstance(raw, Mapping):
        raise ProtocolError(f"{what} must be a JSON object, got {raw!r}")
    return raw


def _message_id(payload: Mapping[str, Any]) -> str:
    message_id = payload.get("id", "")
    if not isinstance(message_id, str):
        raise ProtocolError(f"id must be a string, got {message_id!r}")
    return message_id


def parse_request(raw: bytes | str | Mapping[str, Any]) -> Request:
    """Decode one request message (bytes/str line or a parsed mapping).

    Raises:
        ProtocolError: malformed JSON, wrong version, unknown op, bad
            field types — with ``kind`` set for the typed error reply.
    """
    payload = _load(raw, "request")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})",
            kind=ERROR_UNSUPPORTED_VERSION,
        )
    request_id = _message_id(payload)
    if "op" not in payload:
        raise ProtocolError("missing required field 'op'")
    op = payload["op"]
    spec = OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise ProtocolError(f"unknown op {op!r}")
    return spec.request(id=request_id, **_decode(spec.request, payload))


#: Replies carry no op.  An answer is told apart by a key only its
#: result has, a pong or drain acknowledgement by its exact key set (a
#: metrics snapshot has a "draining" key too); anything else is a
#: metrics snapshot.
_REPLY_MARKERS = (
    ("results", BatchReply),
    ("entries", TopKReply),
    ("density", QueryReply),
    ("appended", AppendReply),
    ("new_ids", ScanReply),
    ("patterns", PatternsReply),
)
_REPLY_KEYS = {
    frozenset(_FIELDS[cls][1:]): cls for cls in (PongReply, DrainReply)
}


def _reply_type(result: Mapping[str, Any]) -> type:
    for marker, cls in _REPLY_MARKERS:
        if marker in result:
            return cls
    return _REPLY_KEYS.get(frozenset(result), MetricsReply)


def parse_reply(raw: bytes | str | Mapping[str, Any]) -> Reply:
    """Decode one reply message (client side).

    Raises:
        ProtocolError: malformed JSON or a reply shape this client does
            not understand, including any field of the wrong type.
    """
    payload = _load(raw, "reply")
    reply_id = _message_id(payload)
    if payload.get("ok"):
        result = payload.get("result")
        if not isinstance(result, Mapping):
            raise ProtocolError(f"ok reply without result object: {payload!r}")
        cls = _reply_type(result)
        if cls is MetricsReply:
            return MetricsReply(id=reply_id, snapshot=dict(result))
        return cls(id=reply_id, **_decode(cls, result))
    error = payload.get("error")
    if not isinstance(error, Mapping):
        raise ProtocolError(f"error reply without typed error object: {payload!r}")
    return ErrorReply(id=reply_id, **_decode(ErrorReply, error))


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
_SCALARS = frozenset({str, int, float, bool})


def _plain(value: Any) -> Any:
    """The JSON-able form of a field value: arrays for tuples, objects
    for nested wire records and mappings."""
    kind = type(value)
    if kind in _SCALARS or value is None:
        return value
    if kind is tuple or kind is list:
        return [_plain(item) for item in value]
    names = _FIELDS.get(kind)
    if names is not None:
        return {name: _plain(getattr(value, name)) for name in names}
    if isinstance(value, Mapping):
        return dict(value)
    return value


def request_payload(request: Request) -> dict[str, Any]:
    """The JSON-able dict form of a request (client side).

    Fields go out in declaration order; ``None`` fields are omitted.
    """
    payload: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request.id, "op": request.op}
    for name in _FIELDS[type(request)][1:]:
        value = getattr(request, name)
        if value is not None:
            payload[name] = _plain(value)
    return payload


def reply_payload(reply: Reply) -> dict[str, Any]:
    """The JSON-able dict form of a reply (server side)."""
    payload: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": reply.id, "ok": reply.ok}
    names = _FIELDS[type(reply)][1:]
    if isinstance(reply, ErrorReply):
        payload["error"] = {
            name: getattr(reply, name)
            for name in names
            if getattr(reply, name) is not None
        }
    elif isinstance(reply, MetricsReply):
        payload["result"] = dict(reply.snapshot)
    else:
        payload["result"] = {name: _plain(getattr(reply, name)) for name in names}
    return payload


def encode(payload: Mapping[str, Any]) -> bytes:
    """Serialize one message as an NDJSON line (trailing newline included)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


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
