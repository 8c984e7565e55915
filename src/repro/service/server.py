"""The asyncio delta-BFlow query server.

:class:`BurstingFlowService` owns one live
:class:`~repro.temporal.network.TemporalFlowNetwork` and serves
versioned-JSON requests against it (see :mod:`repro.service.protocol`)
through the shared front end of :mod:`repro.service.frontend`: NDJSON
over TCP (the lowest-overhead transport;
:class:`repro.service.client.ServiceClient` speaks it) and HTTP/1.1 on
the same port, with one ``POST`` route per op in the op table.

The request path layers the three production concerns of this module's
package: the epoch-keyed :class:`~repro.service.cache.ResultCache`
(streaming appends bump the network epoch, so stale answers can never be
served), :class:`~repro.service.admission.AdmissionController` (bounded
in-flight work, absolute deadlines, typed ``overloaded`` shedding) and
:class:`~repro.service.metrics.ServiceMetrics` (counters plus latency
histograms, exposed via ``/metrics``).

Consistency model: queries take a shared (reader) lock, appends take the
exclusive (writer) lock.  The network epoch is therefore stable for the
whole of any query's execution, every answer is computed on — and cached
under — exactly one network state, and a served answer is always equal
to a fresh :func:`repro.core.engine.find_bursting_flow` on that state.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import asynccontextmanager
from typing import Any, AsyncIterator, Awaitable, Callable, TypeVar

from repro.core.engine import DEFAULT_ALGORITHM, get_algorithm
from repro.core.query import BurstingFlowQuery
from repro.exceptions import ReproError
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.frontend import WireFrontEnd
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    BATCH_PLANS,
    ERROR_INTERNAL,
    ERROR_INVALID,
    ERROR_OVERLOADED,
    ERROR_STALE,
    ERROR_TIMEOUT,
    OPS,
    AppendReply,
    AppendRequest,
    BatchAnswer,
    BatchReply,
    BatchRequest,
    DeadlineExceededError,
    DrainReply,
    DrainRequest,
    ErrorReply,
    MetricsReply,
    MetricsRequest,
    OverloadedError,
    PatternsRequest,
    PingRequest,
    PongReply,
    QueryReply,
    QueryRequest,
    Reply,
    Request,
    ScanRequest,
    TopKReply,
    TopKRequest,
)
from repro.mining.pipeline import MiningPipeline, ScanOutcome
from repro.service.workers import (
    InlineEngine,
    ProcessEnginePool,
    RawAnswer,
    RawBatch,
)
from repro.temporal.edge import TemporalEdge
from repro.temporal.network import TemporalFlowNetwork

_T = TypeVar("_T")


class _ReadWriteLock:
    """Many concurrent readers (queries) or one writer (append)."""

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0

    @asynccontextmanager
    async def read(self) -> AsyncIterator[None]:
        async with self._cond:
            # Writer priority: an append waiting for the lock blocks new
            # queries, otherwise a steady query stream starves appends.
            while self._writing or self._writers_waiting:
                await self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @asynccontextmanager
    async def write(self) -> AsyncIterator[None]:
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    await self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            async with self._cond:
                self._writing = False
                self._cond.notify_all()


class BurstingFlowService(WireFrontEnd):
    """A concurrent delta-BFlow query service over one live network.

    Args:
        network: the temporal flow network to serve (appends mutate it).
        algorithm: default solution when requests do not name one.
        processes: engine parallelism.  ``None`` or ``1`` solves on
            threads against the live network (:class:`InlineEngine`);
            ``>= 2`` (or ``0`` = cpu count) uses an epoch-aware process
            pool (:class:`ProcessEnginePool`).
        mp_context: start method for the process pool.
        cache_capacity / cache_ttl: result-cache sizing (TTL in seconds,
            ``None`` = no expiry; correctness never depends on the TTL —
            epoch keying already invalidates on append).
        max_pending: admission bound on in-flight requests.
        default_timeout / max_timeout: per-request deadline budget.
        replica_id: name this instance carries when serving as a cluster
            replica (surfaced in ``/healthz`` and the metrics snapshot);
            ``None`` for a standalone service.
        mining: a :class:`repro.mining.MiningPipeline` over the *same*
            network, enabling the ``scan``/``patterns`` wire ops (with a
            durable pattern store).  ``None`` (default) answers those
            ops with a typed ``invalid`` error.
    """

    def __init__(
        self,
        network: TemporalFlowNetwork,
        *,
        algorithm: str = DEFAULT_ALGORITHM,
        processes: int | None = None,
        mp_context: str | None = None,
        cache_capacity: int = 4096,
        cache_ttl: float | None = None,
        max_pending: int = 64,
        default_timeout: float = 30.0,
        max_timeout: float = 300.0,
        replica_id: str | None = None,
        mining: MiningPipeline | None = None,
    ) -> None:
        get_algorithm(algorithm)  # fail fast on unknown defaults
        self.network = network
        self.algorithm = algorithm
        self.metrics = ServiceMetrics()
        self.cache = ResultCache(cache_capacity, ttl=cache_ttl)
        self.admission = AdmissionController(
            max_pending=max_pending,
            default_timeout=default_timeout,
            max_timeout=max_timeout,
        )
        self._lock = _ReadWriteLock()
        if processes is None or processes == 1:
            self.engine: InlineEngine | ProcessEnginePool = InlineEngine(network)
        else:
            self.engine = ProcessEnginePool(
                network,
                processes=processes,
                mp_context=mp_context,
                on_restart=self.metrics.observe_restart,
            )
        if mining is not None and mining.network is not network:
            raise ReproError(
                "the mining pipeline must mine the same network the "
                "service serves (appends would diverge otherwise)"
            )
        self.mining = mining
        self._scan_lock = asyncio.Lock()
        self.replica_id = replica_id
        self._draining = False
        # Build the lazy indexes before the first concurrent read.
        if network.num_edges:
            _ = network.timestamps

    @property
    def draining(self) -> bool:
        """Whether a graceful drain is in progress."""
        return self._draining

    # ------------------------------------------------------------------
    # Programmatic entry points (the oracle backend and tests use these)
    # ------------------------------------------------------------------
    async def handle_request(self, request: Request) -> Reply:
        """Dispatch one parsed request to its handler."""
        self.metrics.count_request(request.op)
        if self._draining and OPS[request.op].shed_when_draining:
            reply: Reply = ErrorReply(
                request.id,
                ERROR_OVERLOADED,
                "server is draining",
                retry_after_ms=1000,
            )
        elif isinstance(request, QueryRequest):
            reply = await self._handle_query(request)
        elif isinstance(request, BatchRequest):
            reply = await self._handle_batch(request)
        elif isinstance(request, TopKRequest):
            reply = await self._handle_topk(request)
        elif isinstance(request, AppendRequest):
            reply = await self._handle_append(request)
        elif isinstance(request, ScanRequest):
            reply = await self._handle_scan(request)
        elif isinstance(request, PatternsRequest):
            reply = self._handle_patterns(request)
        elif isinstance(request, MetricsRequest):
            reply = MetricsReply(id=request.id, snapshot=self.snapshot())
        elif isinstance(request, PingRequest):
            reply = PongReply(id=request.id, epoch=self.network.epoch)
        elif isinstance(request, DrainRequest):
            self._draining = True
            reply = DrainReply(
                id=request.id, draining=True, inflight=self.admission.inflight
            )
        else:  # pragma: no cover - parse_request is exhaustive
            reply = ErrorReply(request.id, ERROR_INVALID, "unknown request type")
        if isinstance(reply, ErrorReply):
            self.metrics.count_error(reply.kind)
        return reply

    def _count_protocol_error(self, kind: str) -> None:
        self.metrics.count_error(kind)

    def health_payload(self) -> dict[str, Any]:
        """The ``/healthz`` body: drain state and the network epoch."""
        health: dict[str, Any] = {
            "ok": not self._draining,
            "epoch": self.network.epoch,
            "draining": self._draining,
        }
        if self.replica_id is not None:
            health["replica"] = self.replica_id
        return health

    def snapshot(self) -> dict[str, Any]:
        """The metrics snapshot, extended with cache and network facts."""
        snapshot = self.metrics.snapshot()
        snapshot["cache_detail"] = self.cache.snapshot()
        snapshot["network"] = {
            "epoch": self.network.epoch,
            "nodes": self.network.num_nodes,
            "edges": self.network.num_edges,
        }
        snapshot["admission"] = {
            "max_pending": self.admission.max_pending,
            "inflight": self.admission.inflight,
            "admitted_total": self.admission.admitted_total,
            "shed_total": self.admission.shed_total,
        }
        if self.replica_id is not None:
            snapshot["replica"] = self.replica_id
        if self.mining is not None:
            snapshot["mining"] = {
                "scans": self.mining.scans,
                "patterns": len(self.mining.store),
            }
        snapshot["draining"] = self._draining
        return snapshot

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _admitted_read(
        self,
        request: QueryRequest | BatchRequest | TopKRequest | ScanRequest,
        body: Callable[[int, float], Awaitable[Reply]],
    ) -> Reply:
        """Run one read op's ``body(epoch, deadline)`` on an admitted slot.

        Sheds with ``overloaded`` when admission is full; otherwise holds
        the reader lock (so the epoch is stable for the whole body) and
        refuses with ``stale`` below the request's ``min_epoch``.
        """
        try:
            self.admission.admit()
        except OverloadedError as exc:
            return ErrorReply(
                request.id,
                ERROR_OVERLOADED,
                str(exc),
                retry_after_ms=exc.retry_after_ms,
            )
        self.metrics.set_queue_depth(self.admission.inflight)
        try:
            deadline = self.admission.deadline_for(request.timeout)
            async with self._lock.read():
                epoch = self.network.epoch
                if request.min_epoch is not None and epoch < request.min_epoch:
                    # Read-your-writes fence: this instance has not yet
                    # applied every append the client observed.
                    return ErrorReply(
                        request.id,
                        ERROR_STALE,
                        f"epoch {epoch} is behind required "
                        f"min_epoch {request.min_epoch}",
                        retry_after_ms=25,
                        epoch=epoch,
                    )
                return await body(epoch, deadline)
        finally:
            self.admission.release()
            self.metrics.set_queue_depth(self.admission.inflight)

    async def _solve(
        self,
        request_id: str,
        deadline: float,
        solve: Callable[[], Awaitable[_T]],
    ) -> _T | ErrorReply:
        """Await ``solve()`` within ``deadline``; failures become typed replies.

        ``asyncio.timeout`` rather than ``wait_for``: on 3.11 ``wait_for``
        swallows a cancellation that races the solve's completion, so a
        cancelled request would still return a reply.
        """
        try:
            async with asyncio.timeout(self.admission.remaining(deadline)):
                return await solve()
        except (TimeoutError, DeadlineExceededError):
            return ErrorReply(request_id, ERROR_TIMEOUT, "request deadline exceeded")
        except ReproError as exc:
            return ErrorReply(request_id, ERROR_INVALID, str(exc))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            return ErrorReply(
                request_id, ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    async def _handle_query(self, request: QueryRequest) -> Reply:
        started = time.perf_counter()
        algorithm = (request.algorithm or self.algorithm).lower()
        try:
            get_algorithm(algorithm)
            query = BurstingFlowQuery(request.source, request.sink, request.delta)
        except ReproError as exc:
            return ErrorReply(request.id, ERROR_INVALID, str(exc))

        async def solve() -> RawAnswer:
            query.validate_against(self.network)
            return await self.engine.answer(
                request.source, request.sink, request.delta, algorithm
            )

        async def body(epoch: int, deadline: float) -> Reply:
            key = (epoch, request.source, request.sink, request.delta, algorithm)
            answer = self.cache.get(key)
            cached = answer is not None
            if cached:
                elapsed = time.perf_counter() - started
                self.metrics.observe_hit(elapsed)
            else:
                self.metrics.observe_miss()
                raw = await self._solve(request.id, deadline, solve)
                if isinstance(raw, ErrorReply):
                    return raw
                # Engines return (density, interval, flow_value) plus an
                # optional trailing phase-seconds dict; unpack defensively
                # so a custom engine backend without phases still works.
                answer = tuple(raw[:3])
                self.cache.put(key, answer)
                elapsed = time.perf_counter() - started
                self.metrics.observe_solve(algorithm, elapsed)
                if len(raw) > 3 and raw[3]:
                    self.metrics.observe_phases(algorithm, raw[3])
            density, interval, flow_value = answer
            return QueryReply(
                id=request.id,
                density=density,
                interval=interval,
                flow_value=flow_value,
                cached=cached,
                epoch=epoch,
                elapsed_ms=elapsed * 1000.0,
            )

        return await self._admitted_read(request, body)

    def _batch_key(
        self, epoch: int, source: Any, sink: Any, delta: int, plan: str
    ) -> tuple:
        """Per-entry cache key for batch answers.

        Planner answers are cached under the algorithm label ``"planner"``,
        so they can never collide with single-query engine entries;
        ``plan="independent"`` entries are solved as ``query`` ops with the
        server's default algorithm and share that op's cache key.
        """
        if plan == "shared":
            return (epoch, source, sink, delta, "planner")
        return (epoch, source, sink, delta, self.algorithm.lower())

    async def _handle_batch(self, request: BatchRequest) -> Reply:
        started = time.perf_counter()
        try:
            queries = [
                BurstingFlowQuery(source, sink, delta)
                for source, sink, delta in request.queries
            ]
        except ReproError as exc:
            return ErrorReply(request.id, ERROR_INVALID, str(exc))
        if request.plan not in BATCH_PLANS:
            # The wire parser rejects this too; guard the in-process path
            # so an unknown plan can never silently fall through to one of
            # the known evaluation strategies.
            return ErrorReply(
                request.id,
                ERROR_INVALID,
                f"plan must be one of {', '.join(BATCH_PLANS)}, "
                f"got {request.plan!r}",
            )

        async def body(epoch: int, deadline: float) -> Reply:
            keys = [
                self._batch_key(epoch, q.source, q.sink, q.delta, request.plan)
                for q in queries
            ]
            answers: list[tuple | None] = [self.cache.get(key) for key in keys]
            cached_flags = [answer is not None for answer in answers]
            misses = [i for i, hit in enumerate(cached_flags) if not hit]
            # Each distinct missed key is solved once, for its first
            # position; duplicates are filled from that answer.
            unique: dict[tuple, int] = {}
            for index in misses:
                unique.setdefault(keys[index], index)
            planner: dict[str, Any] = {}
            if misses:
                self.metrics.observe_miss()

                async def solve() -> RawBatch:
                    triples = []
                    for index in unique.values():
                        query = queries[index]
                        query.validate_against(self.network)
                        triples.append((query.source, query.sink, query.delta))
                    if request.plan == "shared":
                        # Solving only the cache misses through the planner
                        # is sound: every answer is canonical per query, so
                        # a partial batch agrees with the full one.
                        return await self.engine.answer_batch(tuple(triples))
                    algorithm = self.algorithm.lower()
                    return [
                        (await self.engine.answer(*triple, algorithm))[:3]
                        for triple in triples
                    ], {}

                solved = await self._solve(request.id, deadline, solve)
                if isinstance(solved, ErrorReply):
                    return solved
                raw, planner = solved
                solved_by_key = dict(zip(unique, raw))
                for key, answer in solved_by_key.items():
                    self.cache.put(key, answer)
                for index in misses:
                    answers[index] = solved_by_key[keys[index]]
                elapsed = time.perf_counter() - started
                label = "planner" if request.plan == "shared" else self.algorithm
                self.metrics.observe_solve(label, elapsed)
            else:
                elapsed = time.perf_counter() - started
                self.metrics.observe_hit(elapsed)
            planner = dict(planner)
            planner["cache_hits"] = len(queries) - len(misses)
            planner["cache_misses"] = len(misses)
            return BatchReply(
                id=request.id,
                results=tuple(
                    BatchAnswer(
                        density=answer[0],
                        interval=answer[1],
                        flow_value=answer[2],
                        cached=hit,
                    )
                    for answer, hit in zip(answers, cached_flags)
                ),
                epoch=epoch,
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
                planner=planner,
            )

        return await self._admitted_read(request, body)

    async def _handle_topk(self, request: TopKRequest) -> Reply:
        started = time.perf_counter()

        async def body(epoch: int, deadline: float) -> Reply:
            # The ranking depends on the whole pair list (dedup order
            # included), so the reply is cached as one unit.
            key = (epoch, "topk", request.pairs, request.delta, request.k)
            entries = self.cache.get(key)
            cached = entries is not None
            if cached:
                self.metrics.observe_hit(time.perf_counter() - started)
            else:
                self.metrics.observe_miss()
                entries = await self._solve(
                    request.id,
                    deadline,
                    lambda: self.engine.answer_topk(
                        request.pairs, request.delta, request.k
                    ),
                )
                if isinstance(entries, ErrorReply):
                    return entries
                self.cache.put(key, entries)
                self.metrics.observe_solve("planner", time.perf_counter() - started)
            return TopKReply(
                id=request.id,
                entries=entries,
                epoch=epoch,
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
                cached=cached,
            )

        return await self._admitted_read(request, body)

    async def _handle_append(self, request: AppendRequest) -> Reply:
        applied: list[TemporalEdge] = []
        async with self._lock.write():
            try:
                for u, v, tau, capacity in request.edges:
                    edge = TemporalEdge(u, v, tau, capacity)
                    self.network.add_edge(edge)
                    applied.append(edge)
            except ReproError as exc:
                # Edges before the failing one are already in; surface the
                # new epoch so the client can resynchronise.
                self.cache.purge_epochs_below(self.network.epoch)
                return ErrorReply(request.id, ERROR_INVALID, str(exc))
            finally:
                if self.network.num_edges:
                    # Rebuild the lazy indexes while we hold the writer
                    # lock so concurrent readers never mutate them.
                    _ = self.network.timestamps
                # A shared-memory engine publishes exactly the edges that
                # made it in (commit order) instead of rebuilding its
                # pool; other engines ignore the argument.
                self.engine.mark_stale(applied)
            epoch = self.network.epoch
            invalidated = self.cache.purge_epochs_below(epoch)
        self.metrics.observe_append(len(request.edges))
        self.metrics.observe_invalidated(invalidated)
        return AppendReply(
            id=request.id,
            appended=len(request.edges),
            epoch=epoch,
            invalidated=invalidated,
        )

    async def _handle_scan(self, request: ScanRequest) -> Reply:
        started = time.perf_counter()
        mining = self.mining
        if mining is None:
            return self._mining_disabled(request.id)

        def scan() -> ScanOutcome:
            return mining.scan(
                request.delta,
                pairs=request.pairs,
                persist=request.persist,
                top=request.top,
                min_volume=request.min_volume,
            )

        async def body(epoch: int, deadline: float) -> Reply:
            # A scan has durable side effects (it persists patterns), so it
            # is never cached and scans are serialized among themselves:
            # concurrent scans would race on the pattern store and on the
            # pipeline's ledgers, which the ranking sorts in place.
            loop = asyncio.get_running_loop()
            async with self._scan_lock:
                outcome = await self._solve(
                    request.id, deadline, lambda: loop.run_in_executor(None, scan)
                )
            if isinstance(outcome, ErrorReply):
                return outcome
            self.metrics.observe_solve("mining", time.perf_counter() - started)
            return self._scan_reply(request.id, outcome, started)

        return await self._admitted_read(request, body)

    # ------------------------------------------------------------------
    # Lifecycle (the NDJSON/HTTP front end is WireFrontEnd's)
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        return await self._listen(host, port)

    async def drain(self, timeout: float = 30.0) -> bool:
        """Stop admitting work and wait for in-flight requests to finish.

        Returns True when the server drained fully within ``timeout``.
        """
        self._draining = True
        deadline = time.monotonic() + timeout
        while self.admission.inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        return self.admission.inflight == 0

    async def stop(self) -> None:
        """Close the listener and the engine backend."""
        await self._close_listener()
        self.engine.close()

    async def __aenter__(self) -> "BurstingFlowService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()
