"""Blocking NDJSON-over-TCP client for the delta-BFlow query service.

:class:`ServiceClient` is the reference client: one socket, one request
in flight at a time, typed exceptions for typed errors.  It is what the
throughput benchmark's closed-loop workers, the CI smoke job and the CLI
examples use; anything that can speak newline-delimited JSON (netcat
included) interoperates.

    with ServiceClient(host, port) as client:
        reply = client.query("alice", "mallory", delta=5)
        print(reply.density, reply.interval, reply.cached)

Opt-in retry: pass a :class:`RetryPolicy` and the retryable typed
errors — ``overloaded`` (the server shed the request) and ``stale``
(the server has not yet replicated up to the query's ``min_epoch``) —
are retried with jittered exponential backoff, never sleeping less than
the server's ``retry_after_ms`` hint.  The cluster coordinator's router
and health monitor reuse the same policy for their own backoff
arithmetic.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.service.protocol import (
    AppendReply,
    AppendRequest,
    BatchReply,
    BatchRequest,
    DrainRequest,
    MetricsRequest,
    OverloadedError,
    PatternsReply,
    PatternsRequest,
    PingRequest,
    ProtocolError,
    QueryReply,
    QueryRequest,
    Reply,
    Request,
    ScanReply,
    ScanRequest,
    StaleEpochError,
    TopKReply,
    TopKRequest,
    encode,
    parse_reply,
    raise_for_error,
    request_payload,
)
from repro.temporal.edge import NodeId, Timestamp


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for retryable errors
    (``overloaded`` and ``stale``).

    The delay before retry attempt ``attempt`` (0-based) is::

        max(base_delay * multiplier**attempt  (capped at max_delay),
            retry_after_ms / 1000)            * (1 ± jitter)

    so the server's ``retry_after_ms`` congestion hint is always
    honoured as a floor, the exponential curve dominates once the hint
    is stale, and the jitter decorrelates clients that were shed by the
    same overload spike.

    Args:
        max_attempts: total tries (the first attempt included); at least 1.
        base_delay: first backoff step in seconds.
        multiplier: exponential growth factor per attempt.
        max_delay: cap on the exponential term (the ``retry_after_ms``
            floor may still exceed it).
        jitter: symmetric relative jitter (0.2 = ±20%).
        rng: injectable randomness source (tests pin it).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.2
    rng: random.Random = field(
        default_factory=random.Random, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay <= 0 or self.max_delay <= 0:
            raise ValueError("delays must be positive seconds")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_for(self, attempt: int, retry_after_ms: int | None = None) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based).

        Jitter swings the exponential term symmetrically; the server's
        ``retry_after_ms`` hint is then applied as a *hard floor*, so a
        jittered delay can never undercut what the server asked for —
        a shedding server is never hammered earlier than it allowed.
        """
        backoff = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        swing = self.jitter * (2.0 * self.rng.random() - 1.0)
        delay = backoff * (1.0 + swing)
        if retry_after_ms is not None:
            delay = max(delay, retry_after_ms / 1000.0)
        return delay


class ServiceClient:
    """A blocking client for one service connection.

    Args:
        host / port: the service address.
        timeout: socket timeout (seconds) for connect and replies.
        retry: opt-in :class:`RetryPolicy` for typed ``overloaded`` and
            ``stale`` errors (``None`` — the default — surfaces them
            immediately).
        sleep: injectable sleep function (tests use a fake clock).

    Raises (from the request methods):
        OverloadedError: the server shed the request (after the retry
            budget, when a policy is configured).
        DeadlineExceededError: the server timed the request out.
        StaleEpochError: the server is behind the query's ``min_epoch``
            (after the retry budget, when a policy is configured).
        ProtocolError: the request was rejected as invalid.
        RemoteServiceError: the server reported an internal failure.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._ids = itertools.count(1)
        self._retry = retry
        self._sleep = sleep

    # ------------------------------------------------------------------
    def request(self, request: Request) -> Reply:
        """Send one request and block for its reply (errors raised typed).

        With a :class:`RetryPolicy` configured, ``overloaded`` and
        ``stale`` replies are retried (same request, same id) with
        jittered backoff honouring the server's ``retry_after_ms``
        hint; any other error raises immediately.
        """
        attempts = self._retry.max_attempts if self._retry is not None else 1
        for attempt in range(attempts):
            try:
                return self._request_once(request)
            except (OverloadedError, StaleEpochError) as exc:
                if attempt + 1 >= attempts:
                    raise
                assert self._retry is not None
                self._sleep(self._retry.delay_for(attempt, exc.retry_after_ms))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, request: Request) -> Reply:
        self._file.write(encode(request_payload(request)))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ProtocolError("connection closed by server")
        return raise_for_error(parse_reply(line))

    def query(
        self,
        source: NodeId,
        sink: NodeId,
        delta: int,
        *,
        algorithm: str | None = None,
        timeout: float | None = None,
        min_epoch: int | None = None,
    ) -> QueryReply:
        """Answer one delta-BFlow query."""
        reply = self.request(
            QueryRequest(
                id=f"q{next(self._ids)}",
                source=source,
                sink=sink,
                delta=delta,
                algorithm=algorithm,
                timeout=timeout,
                min_epoch=min_epoch,
            )
        )
        assert isinstance(reply, QueryReply)
        return reply

    def batch(
        self,
        queries: Iterable[tuple[NodeId, NodeId, int]],
        *,
        plan: str = "shared",
        timeout: float | None = None,
        min_epoch: int | None = None,
    ) -> BatchReply:
        """Answer a batch of ``(source, sink, delta)`` queries in one
        round trip; ``plan="shared"`` lets the server's planner share one
        window skeleton per source and the Maxflow memo per (source, sink)
        group."""
        reply = self.request(
            BatchRequest(
                id=f"b{next(self._ids)}",
                queries=tuple(tuple(query) for query in queries),
                plan=plan,
                timeout=timeout,
                min_epoch=min_epoch,
            )
        )
        assert isinstance(reply, BatchReply)
        return reply

    def topk(
        self,
        pairs: Iterable[tuple[NodeId, NodeId]],
        delta: int,
        *,
        k: int = 10,
        timeout: float | None = None,
        min_epoch: int | None = None,
    ) -> TopKReply:
        """Rank the k densest bursts among candidate (source, sink) pairs."""
        reply = self.request(
            TopKRequest(
                id=f"t{next(self._ids)}",
                pairs=tuple(tuple(pair) for pair in pairs),
                delta=delta,
                k=k,
                timeout=timeout,
                min_epoch=min_epoch,
            )
        )
        assert isinstance(reply, TopKReply)
        return reply

    def append(
        self, edges: Iterable[tuple[NodeId, NodeId, Timestamp, float]]
    ) -> AppendReply:
        """Stream new edges into the served network."""
        reply = self.request(
            AppendRequest(id=f"a{next(self._ids)}", edges=tuple(edges))
        )
        assert isinstance(reply, AppendReply)
        return reply

    def scan(
        self,
        delta: int,
        *,
        pairs: Iterable[tuple[NodeId, NodeId]] | None = None,
        top: int | None = None,
        min_volume: float | None = None,
        persist: str = "flagged",
        timeout: float | None = None,
        min_epoch: int | None = None,
    ) -> ScanReply:
        """Run one mining-funnel scan on the server's pattern store."""
        reply = self.request(
            ScanRequest(
                id=f"s{next(self._ids)}",
                delta=delta,
                pairs=(
                    tuple(tuple(pair) for pair in pairs)
                    if pairs is not None
                    else None
                ),
                top=top,
                min_volume=min_volume,
                persist=persist,
                timeout=timeout,
                min_epoch=min_epoch,
            )
        )
        assert isinstance(reply, ScanReply)
        return reply

    def patterns(
        self,
        *,
        source: NodeId | None = None,
        sink: NodeId | None = None,
        since: Timestamp | None = None,
        until: Timestamp | None = None,
        min_density: float | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Query the server's durable pattern store (dict records)."""
        reply = self.request(
            PatternsRequest(
                id=f"g{next(self._ids)}",
                source=source,
                sink=sink,
                since=since,
                until=until,
                min_density=min_density,
                limit=limit,
            )
        )
        assert isinstance(reply, PatternsReply)
        return [dict(record) for record in reply.patterns]

    def metrics(self) -> dict[str, Any]:
        """The server's metrics snapshot."""
        reply = self.request(MetricsRequest(id=f"m{next(self._ids)}"))
        return dict(reply.snapshot)  # type: ignore[union-attr]

    def ping(self) -> int:
        """Liveness probe; returns the current network epoch."""
        reply = self.request(PingRequest(id=f"p{next(self._ids)}"))
        return reply.epoch  # type: ignore[union-attr]

    def drain(self) -> int:
        """Ask the server to drain; returns its in-flight request count."""
        reply = self.request(DrainRequest(id=f"d{next(self._ids)}"))
        return reply.inflight  # type: ignore[union-attr]

    def close(self) -> None:
        """Close the connection."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
