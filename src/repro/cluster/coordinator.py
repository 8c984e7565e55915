"""The cluster coordinator: one client-facing port, N replicas behind it.

:class:`ClusterCoordinator` speaks exactly the protocol a single
:class:`~repro.service.BurstingFlowService` speaks — through the same
front end, :class:`~repro.service.frontend.WireFrontEnd` — so every
existing client, the oracle backend and ``netcat`` work against a
cluster unchanged.  Behind the
port it adds the replicated serving tier:

* **Durable appends.**  An append is written to the shared
  :class:`~repro.store.AppendLog` and flushed *before* it is fanned out
  to the replicas.  Every replica applies it through the same
  ``add_edge`` path, so the ``AppendReply.epoch`` values double as
  replication acks — deterministic, comparable across replicas.  An
  append is committed once *any* replica acks it (laggards are dropped
  and catch up from the log); one that **no** replica applied is rolled
  back out of the log before the typed retryable error is returned, so
  a client retry can never duplicate it.
* **Committed epoch / read-your-writes.**  The cluster's *committed
  epoch* is the epoch every live replica has acked.  Every routed query
  is stamped with ``min_epoch = committed``, so a replica that somehow
  lags answers with a typed ``stale`` error and the router fails over —
  a client can never read a state older than the last acked append.
* **Affinity routing with typed failover.**  Queries route by
  consistent hash on ``(source, sink)`` (per-replica caches become
  additive shards), falling back least-in-flight-first, trying each
  surviving replica **at most once** per round; ``overloaded`` rounds
  back off under the shared :class:`~repro.service.RetryPolicy`.  A
  batch or top-k request is forwarded as one sub-request per replica
  that owns any of its pairs (:meth:`ClusterCoordinator._scatter`), so
  a replica's planner sees all the pairs it owns in one call.
* **The service's mining funnel.**  A ``scan`` runs the same
  :class:`~repro.mining.MiningPipeline` a single service runs, over the
  coordinator's committed mirror; only the confirmation between its
  ``shortlist`` and ``settle`` steps is routed (as a top-k).
* **Self-healing.**  A replica that fails a probe or drops a forwarded
  request is taken out of rotation and re-joined by restoring the
  latest snapshot and replaying the log suffix behind it — under the
  append lock, so its recovered state provably covers the committed
  state (epoch comparison; the log is the source of truth, so a replay
  *ahead* of the acked view advances the committed epoch rather than
  blocking the re-join) before it serves again.  A ``kill -9``-ed
  replica therefore loses no acked appends and can never serve a stale
  answer: both properties hold by construction.
* **Bounded recovery.**  The coordinator maintains a *mirror* of the
  replayed network (applied through the same code path as the
  replicas), and after every ``snapshot_every`` committed appends it
  checkpoints: write a crash-atomic snapshot of the mirror
  (:class:`~repro.store.SnapshotStore`), then compact the covered log
  prefix away (:meth:`~repro.store.AppendLog.truncate_prefix`).
  Replica rejoin and coordinator restart both become *snapshot load +
  suffix replay* — bounded by the records since the last checkpoint,
  not by total history — and a ``kill -9``-ed coordinator rebuilds its
  committed epoch from the durable artifacts alone at construction.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.cluster.health import HealthMonitor
from repro.cluster.replica import InlineReplica, ProcessReplica, ReplicaError
from repro.cluster.replication import (
    append_record,
    apply_record,
    bootstrap_network,
    default_snapshot_dir,
    network_state_record,
)
from repro.cluster.router import ConsistentHashRouter
from repro.core.planner import BurstEntry
from repro.exceptions import ReproError
from repro.service.client import RetryPolicy
from repro.service.frontend import WireFrontEnd
from repro.service.metrics import aggregate_snapshots
from repro.service.protocol import (
    ERROR_INTERNAL,
    ERROR_INVALID,
    ERROR_OVERLOADED,
    ERROR_STALE,
    ERROR_UNSUPPORTED_VERSION,
    OPS,
    AppendReply,
    AppendRequest,
    BatchAnswer,
    BatchReply,
    BatchRequest,
    DrainReply,
    DrainRequest,
    ErrorReply,
    MetricsReply,
    MetricsRequest,
    PatternsRequest,
    PingRequest,
    PongReply,
    QueryRequest,
    Reply,
    Request,
    ScanRequest,
    TopKReply,
    TopKRequest,
    encode,
    parse_reply,
    request_payload,
)
from repro.mining.pipeline import MiningPipeline
from repro.mining.store import PatternStore
from repro.store.log import AppendLog
from repro.store.snapshot import SnapshotStore

ReplicaHandle = InlineReplica | ProcessReplica


class ReplicaUnavailableError(ReproError):
    """The replica's connection dropped or could not be established."""


class _ReplicaChannel:
    """A pool of persistent NDJSON connections to one replica.

    The replica serves one request at a time per connection, so the
    coordinator keeps up to ``size`` of them and borrows one per
    forwarded request.  Connections open lazily and broken ones are
    dropped (the next borrow redials).
    """

    def __init__(
        self, host: str, port: int, *, size: int = 8, timeout: float = 600.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._free: asyncio.Queue = asyncio.Queue()
        for _ in range(size):
            self._free.put_nowait(None)  # lazy-connect slots
        self._closed = False

    async def request(self, payload: Mapping[str, Any]) -> Reply:
        """Forward one message; returns the parsed (typed) reply.

        Raises:
            ReplicaUnavailableError: connect/read/write failure — the
                caller treats the replica as down.
        """
        if self._closed:
            raise ReplicaUnavailableError("channel is closed")
        connection = await self._free.get()
        broken = True
        try:
            if connection is None:
                try:
                    connection = await asyncio.open_connection(self.host, self.port)
                except OSError as exc:
                    raise ReplicaUnavailableError(
                        f"connect to {self.host}:{self.port} failed: {exc}"
                    ) from exc
            reader, writer = connection
            try:
                writer.write(encode(payload))
                await writer.drain()
                # asyncio.timeout, not wait_for: on 3.11 wait_for can
                # swallow an outside cancellation that races the reply's
                # arrival, leaving the cancelled caller (health monitor,
                # rejoin task) looping forever after stop().
                async with asyncio.timeout(self.timeout):
                    line = await reader.readline()
            except (OSError, asyncio.TimeoutError) as exc:
                raise ReplicaUnavailableError(
                    f"request to {self.host}:{self.port} failed: {exc}"
                ) from exc
            if not line:
                raise ReplicaUnavailableError(
                    f"{self.host}:{self.port} closed the connection"
                )
            broken = False
            return parse_reply(line)
        finally:
            if broken:
                if connection is not None:
                    connection[1].close()
                self._free.put_nowait(None)
            else:
                self._free.put_nowait(connection)

    async def close(self) -> None:
        """Close every pooled connection (waiting out the transports,
        so replica-side handlers see EOF before any loop teardown)."""
        self._closed = True
        while not self._free.empty():
            connection = self._free.get_nowait()
            if connection is not None:
                connection[1].close()
                try:
                    async with asyncio.timeout(1.0):
                        await connection[1].wait_closed()
                except (OSError, asyncio.TimeoutError):
                    pass


@dataclass
class _ReplicaState:
    """Everything the coordinator tracks about one replica."""

    handle: ReplicaHandle
    channel: _ReplicaChannel | None = None
    live: bool = False
    acked_epoch: int = -1
    inflight: int = 0
    rejoining: bool = False
    failures: int = 0
    restarts: int = 0


@dataclass
class _Counters:
    """Coordinator-level counters (replica metrics aggregate separately)."""

    queries: int = 0
    batches: int = 0
    topks: int = 0
    scans: int = 0
    appends: int = 0
    failovers: int = 0
    restarts: int = 0
    rejoin_failures: int = 0
    rollbacks: int = 0
    shed: int = 0
    stale_retries: int = 0
    snapshots: int = 0
    compactions: int = 0
    records_compacted: int = 0
    checkpoint_failures: int = 0
    requests: dict[str, int] = field(default_factory=dict)


class ClusterCoordinator(WireFrontEnd):
    """A replicated delta-BFlow serving tier behind one port.

    Args:
        log_path: the shared append log (created if absent).  The
            coordinator is the log's only writer; replicas replay it.
        replicas: replica handles to supervise (see
            :mod:`repro.cluster.replica`); booted by :meth:`start`.
        retry: backoff policy for ``overloaded`` replica replies and
            re-join attempts (defaults to a small jittered budget).
        fsync: fsync the log on every append (durable to media, not
            just to the OS page cache).
        health_interval: seconds between liveness sweeps.
        request_timeout: per-forwarded-request ceiling, seconds.
        snapshot_dir: where durable snapshots of the replayed state
            live (default: the shared ``<log>.snapshots`` convention
            replicas derive too).
        snapshot_every: checkpoint — snapshot + log prefix compaction —
            automatically after this many committed append records
            (``None`` disables automatic checkpoints; :meth:`checkpoint`
            stays available).
        patterns_dir: directory of the cluster's durable pattern store,
            enabling the ``scan``/``patterns`` ops: a
            :class:`~repro.mining.MiningPipeline` over the committed
            mirror runs the funnel, the δ-BFlow confirmation is scattered
            across the replicas by pair affinity (the top-k route), and
            flagged patterns persist here.  ``None`` (default) answers
            those ops with a typed ``invalid`` error.

    Construction *recovers*: the coordinator rebuilds its committed
    state — a mirror of the replayed network, the committed epoch and
    the durable record count — from the snapshot manifest plus the log
    suffix, before any replica boots.  A ``kill -9``-ed coordinator
    therefore restarts with zero lost committed appends and without
    replaying the compacted history.
    """

    _mining_off = "coordinator (start it with patterns_dir)"

    def __init__(
        self,
        log_path: str | Path,
        replicas: Sequence[ReplicaHandle],
        *,
        retry: RetryPolicy | None = None,
        fsync: bool = False,
        health_interval: float = 0.5,
        request_timeout: float = 600.0,
        snapshot_dir: str | Path | None = None,
        snapshot_every: int | None = None,
        patterns_dir: str | Path | None = None,
    ) -> None:
        if not replicas:
            raise ReproError("a cluster needs at least one replica")
        if snapshot_every is not None and snapshot_every < 1:
            raise ReproError(f"snapshot_every must be >= 1, got {snapshot_every}")
        ids = [replica.replica_id for replica in replicas]
        if len(set(ids)) != len(ids):
            raise ReproError(f"duplicate replica ids: {ids!r}")
        self.log = AppendLog(log_path, fsync=fsync)
        self.snapshots = SnapshotStore(
            snapshot_dir if snapshot_dir is not None
            else default_snapshot_dir(log_path)
        )
        self.snapshot_every = snapshot_every
        # Cold-start recovery: committed epoch and state come from the
        # durable artifacts alone (snapshot manifest + log suffix), not
        # from the replicas — the log is the source of truth.
        boot = bootstrap_network(self.log, self.snapshots)
        self._mirror = boot.network
        self._records_total = boot.total_records
        self._records_since_snapshot = boot.replayed_records
        self.recovery = {
            "from_snapshot": boot.from_snapshot,
            "replayed_records": boot.replayed_records,
            "total_records": boot.total_records,
        }
        # Finish a compaction a crash interrupted after the manifest
        # became durable (idempotent; a no-op when none is pending).
        if boot.manifest is not None and boot.manifest.log_offset > self.log.base_offset:
            dropped = self.log.truncate_prefix(boot.manifest.log_offset)
            if dropped:
                self.recovery["resumed_compaction"] = dropped
        self._replicas: dict[str, _ReplicaState] = {
            replica.replica_id: _ReplicaState(handle=replica)
            for replica in replicas
        }
        self.mining: MiningPipeline | None = (
            MiningPipeline(self._mirror, PatternStore(patterns_dir, fsync=fsync))
            if patterns_dir is not None
            else None
        )
        self.patterns = self.mining.store if self.mining is not None else None
        self.router = ConsistentHashRouter(ids)
        self.retry = retry or RetryPolicy(
            max_attempts=3, base_delay=0.05, max_delay=1.0
        )
        self.request_timeout = request_timeout
        self.counters = _Counters()
        self.committed_epoch = self._mirror.epoch
        self._append_lock = asyncio.Lock()
        self._draining = False
        self._inflight = 0
        self._rejoin_tasks: set[asyncio.Task] = set()
        self.health = HealthMonitor(
            targets=self._live_ids,
            probe=self._probe,
            on_failure=self._on_probe_failure,
            interval=health_interval,
            policy=self.retry,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Boot every replica, verify epoch agreement, bind the port.

        The committed epoch was already recovered from the durable
        snapshot + log suffix at construction; every replica boots from
        the same artifacts and must report exactly that epoch — a
        mismatch means the shared state diverged and serving would be
        unsafe.
        """
        epochs = {}
        for replica_id, state in self._replicas.items():
            address = await state.handle.start()
            state.channel = _ReplicaChannel(
                *address, timeout=self.request_timeout
            )
            pong = await state.channel.request(
                request_payload(PingRequest(id="boot"))
            )
            assert isinstance(pong, PongReply), pong
            epochs[replica_id] = pong.epoch
            state.live = True
            state.acked_epoch = pong.epoch
        diverged = {
            rid: epoch for rid, epoch in epochs.items()
            if epoch != self.committed_epoch
        }
        if diverged:
            raise ReproError(
                f"replicas replayed the shared snapshot + log to epochs "
                f"{epochs!r}, but the recovered committed epoch is "
                f"{self.committed_epoch}"
            )
        self.health.start()
        return await self._listen(host, port)

    async def drain(self, timeout: float = 30.0) -> bool:
        """Stop admitting work; wait for in-flight requests to finish."""
        self._draining = True
        deadline = time.monotonic() + timeout
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        return self._inflight == 0

    async def stop(self) -> None:
        """Drainless shutdown: close the port, replicas and the log."""
        await self._close_listener()
        await self.health.stop()
        for task in list(self._rejoin_tasks):
            task.cancel()
        if self._rejoin_tasks:
            await asyncio.gather(*self._rejoin_tasks, return_exceptions=True)
        self._rejoin_tasks.clear()
        for state in self._replicas.values():
            if state.channel is not None:
                await state.channel.close()
            state.live = False
        # One tick so replica-side connection handlers drain their EOFs
        # before the replicas (and possibly the loop) shut down.
        await asyncio.sleep(0.01)
        for state in self._replicas.values():
            await state.handle.terminate()
        if self.patterns is not None:
            self.patterns.close()
        self.log.close()

    async def __aenter__(self) -> "ClusterCoordinator":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Health / membership
    # ------------------------------------------------------------------
    def _live_ids(self) -> list[str]:
        return [rid for rid, state in self._replicas.items() if state.live]

    async def _probe(self, replica_id: str) -> int:
        state = self._replicas[replica_id]
        if state.channel is None:
            raise ReplicaUnavailableError(f"{replica_id} has no channel")
        pong = await state.channel.request(
            request_payload(PingRequest(id="health"))
        )
        if not isinstance(pong, PongReply):
            raise ReplicaUnavailableError(f"{replica_id} ping answered {pong!r}")
        return pong.epoch

    async def _on_probe_failure(self, replica_id: str) -> None:
        self._mark_dead(replica_id)

    def _mark_dead(self, replica_id: str) -> None:
        """Take a replica out of rotation and schedule its re-join."""
        state = self._replicas[replica_id]
        if not state.live:
            return
        state.live = False
        state.failures += 1
        if not state.rejoining:
            state.rejoining = True
            task = asyncio.ensure_future(self._rejoin(replica_id))
            self._rejoin_tasks.add(task)
            task.add_done_callback(self._rejoin_tasks.discard)

    async def _rejoin(self, replica_id: str) -> None:
        """Restart a dead replica from the log and re-admit it.

        Runs under the append lock, so the replica replays a *stable*
        log: its post-replay epoch must be at least the committed epoch,
        which is the proof it holds every acked append (an epoch *above*
        the committed one means the log carries records no replica ever
        acked — the log is the source of truth, so the committed epoch
        advances to match).  Appends stall for the duration of one
        replica boot — the documented trade-off for making "re-joined"
        mean "provably caught up".
        """
        state = self._replicas[replica_id]
        try:
            for attempt in range(self.retry.max_attempts):
                try:
                    async with self._append_lock:
                        if state.channel is not None:
                            await state.channel.close()
                        address = await state.handle.restart()
                        state.channel = _ReplicaChannel(
                            *address, timeout=self.request_timeout
                        )
                        epoch = await self._probe(replica_id)
                        if epoch < self.committed_epoch:
                            # The replay lost acked appends — the log is
                            # behind the committed state.  Never admit.
                            raise ReplicaError(
                                f"{replica_id} replayed to epoch {epoch}, "
                                f"committed is {self.committed_epoch}"
                            )
                        if epoch > self.committed_epoch:
                            # The durable log is *ahead* of every ack we
                            # ever saw (e.g. an append was logged, then
                            # all replicas dropped before acking).  The
                            # log is the source of truth and the replay
                            # is the catch-up: adopt its epoch.  We hold
                            # the append lock, so no fan-out races this.
                            self.committed_epoch = epoch
                        state.acked_epoch = epoch
                        state.live = True
                        state.restarts += 1
                        self.counters.restarts += 1
                        return
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 - retry, then give up
                    if attempt + 1 >= self.retry.max_attempts:
                        self.counters.rejoin_failures += 1
                        return
                    await asyncio.sleep(self.retry.delay_for(attempt))
        finally:
            state.rejoining = False

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def handle_request(self, request: Request) -> Reply:
        """Dispatch one parsed request (programmatic entry point)."""
        op = request.op
        self.counters.requests[op] = self.counters.requests.get(op, 0) + 1
        if self._draining and OPS[op].shed_when_draining:
            self.counters.shed += 1
            return ErrorReply(
                request.id,
                ERROR_OVERLOADED,
                "coordinator is draining",
                retry_after_ms=1000,
            )
        self._inflight += 1
        try:
            if isinstance(request, QueryRequest):
                self.counters.queries += 1
                return await self._route_query(request)
            if isinstance(request, BatchRequest):
                self.counters.batches += 1
                return await self._route_batch(request)
            if isinstance(request, TopKRequest):
                self.counters.topks += 1
                return await self._route_topk(request)
            if isinstance(request, ScanRequest):
                self.counters.scans += 1
                return await self._route_scan(request)
            if isinstance(request, PatternsRequest):
                return self._handle_patterns(request)
            if isinstance(request, AppendRequest):
                self.counters.appends += 1
                return await self._replicate_append(request)
            if isinstance(request, MetricsRequest):
                return MetricsReply(id=request.id, snapshot=await self.snapshot())
            if isinstance(request, PingRequest):
                return PongReply(id=request.id, epoch=self.committed_epoch)
            if isinstance(request, DrainRequest):
                self._draining = True
                return DrainReply(
                    id=request.id, draining=True, inflight=self._inflight - 1
                )
            return ErrorReply(  # pragma: no cover - parse_request is exhaustive
                request.id, ERROR_INTERNAL, "unknown request type"
            )
        finally:
            self._inflight -= 1

    # ------------------------------------------------------------------
    # Queries: affinity route, failover at most once per replica
    # ------------------------------------------------------------------
    def _fence(
        self, request: QueryRequest | BatchRequest | TopKRequest | ScanRequest
    ) -> int | ErrorReply:
        """The epoch a read must see, or ``stale`` when no replica can.

        Every read is fenced at least at the committed epoch; a client
        ``min_epoch`` above it demands a state no replica has acked yet.
        """
        fence = max(self.committed_epoch, request.min_epoch or 0)
        if fence > self.committed_epoch:
            return ErrorReply(
                request.id,
                ERROR_STALE,
                f"cluster committed epoch {self.committed_epoch} is behind "
                f"required min_epoch {fence}",
                retry_after_ms=25,
                epoch=self.committed_epoch,
            )
        return fence

    def _shed(self, request_id: str, what: str = "") -> ErrorReply:
        """Shed a read no live replica can take; ``what`` names the part."""
        self.counters.shed += 1
        return ErrorReply(
            request_id,
            ERROR_OVERLOADED,
            f"no live replica available{what}",
            retry_after_ms=200,
        )

    async def _forward_keyed(
        self, payload: Mapping[str, Any], source: Any, sink: Any, fence: int
    ) -> Reply | None:
        """Route one encoded request to the ``(source, sink)`` shard.

        Walks the affinity/failover order, trying each surviving replica
        at most once per round; ``overloaded``/``stale`` rounds back off
        under the retry policy.  Returns the reply — possibly a typed
        error that is not failover-able (invalid / timeout / internal:
        every replica would answer the same way) or the last retryable
        error after the budget — or ``None`` when no replica was
        available at all (the caller sheds).
        """
        last_error: ErrorReply | None = None
        for round_index in range(self.retry.max_attempts):
            eligible = [
                rid
                for rid, state in self._replicas.items()
                if state.live and state.acked_epoch >= fence
            ]
            order = self.router.order(
                source,
                sink,
                eligible,
                {rid: self._replicas[rid].inflight for rid in eligible},
            )
            for position, replica_id in enumerate(order):
                state = self._replicas[replica_id]
                state.inflight += 1
                try:
                    reply = await state.channel.request(payload)
                except ReplicaUnavailableError:
                    self.counters.failovers += 1
                    self._mark_dead(replica_id)
                    continue
                finally:
                    state.inflight -= 1
                if not isinstance(reply, ErrorReply):
                    if position > 0:
                        self.counters.failovers += 1
                    return reply
                if reply.kind == ERROR_STALE:
                    # Paranoia path: the eligibility filter said this
                    # replica was caught up.  Resync our view, fail over.
                    state.acked_epoch = reply.epoch if reply.epoch is not None else -1
                    self.counters.stale_retries += 1
                    last_error = reply
                    continue
                if reply.kind == ERROR_OVERLOADED:
                    # Every replica gets one chance this round; if all
                    # are saturated we back off below and try again.
                    last_error = reply
                    continue
                # invalid / timeout / internal are not failover-able:
                # every replica would answer the same way.
                return reply
            if round_index + 1 < self.retry.max_attempts:
                hint = (
                    last_error.retry_after_ms
                    if last_error is not None
                    else None
                )
                await asyncio.sleep(self.retry.delay_for(round_index, hint))
        return last_error

    async def _route_query(self, request: QueryRequest) -> Reply:
        fence = self._fence(request)
        if isinstance(fence, ErrorReply):
            return fence
        forwarded = replace(request, min_epoch=fence)
        reply = await self._forward_keyed(
            request_payload(forwarded), request.source, request.sink, fence
        )
        if reply is None:
            return self._shed(request.id)
        if isinstance(reply, ErrorReply):
            return replace(reply, id=request.id)
        return reply

    # ------------------------------------------------------------------
    # Batches / top-k: one sub-request per shard owner
    # ------------------------------------------------------------------
    async def _scatter(
        self,
        request_id: str,
        keys: Sequence[tuple[Any, Any]],
        fence: int,
        sub_request: Callable[[str, list[int]], Request],
    ) -> list[tuple[list[int], Reply]] | ErrorReply:
        """Forward one sub-request per replica that owns any of ``keys``.

        ``keys`` are a request's ``(source, sink)`` pairs; positions are
        grouped by each pair's affinity owner among the eligible
        replicas, and ``sub_request(sub_id, positions)`` builds the
        owner's share.  Each share is keyed by its first pair — whose
        affinity *is* that owner — so failover walks the same ring.
        Returns ``(positions, reply)`` per owner, or the error reply
        (shed when no replica is eligible) the whole request fails with.
        """
        eligible = [
            rid
            for rid, state in self._replicas.items()
            if state.live and state.acked_epoch >= fence
        ]
        by_owner: dict[str | None, list[int]] = {}
        for position, (source, sink) in enumerate(keys):
            owner = self.router.affinity(source, sink, eligible)
            by_owner.setdefault(owner, []).append(position)
        if None in by_owner:
            return self._shed(request_id)
        shards = list(by_owner.values())
        replies = await asyncio.gather(
            *(
                self._forward_keyed(
                    request_payload(sub_request(f"{request_id}.s{n}", positions)),
                    *keys[positions[0]],
                    fence,
                )
                for n, positions in enumerate(shards)
            )
        )
        for positions, reply in zip(shards, replies):
            if reply is None:
                pairs = [keys[position] for position in positions]
                return self._shed(request_id, f" for pairs {pairs!r}")
            if isinstance(reply, ErrorReply):
                return replace(reply, id=request_id)
        return list(zip(shards, replies))

    async def _route_batch(self, request: BatchRequest) -> Reply:
        """Scatter a batch by shard owner; merge in input order.

        Each owner receives every query whose ``(source, sink)`` it owns
        as one sub-batch, so its planner shares a source's skeleton
        across that source's sinks and keeps each pair's window memo
        (and its per-entry cache) on the pair's shard.  The replies'
        planner reports are summed.
        """
        started = time.perf_counter()
        fence = self._fence(request)
        if isinstance(fence, ErrorReply):
            return fence
        queries = request.queries
        scattered = await self._scatter(
            request.id,
            [(source, sink) for source, sink, _delta in queries],
            fence,
            lambda sub_id, positions: BatchRequest(
                id=sub_id,
                queries=tuple(queries[i] for i in positions),
                plan=request.plan,
                timeout=request.timeout,
                min_epoch=fence,
            ),
        )
        if isinstance(scattered, ErrorReply):
            return scattered
        results: list[BatchAnswer | None] = [None] * len(queries)
        planner: dict[str, Any] = {}
        for positions, reply in scattered:
            assert isinstance(reply, BatchReply), reply
            for position, answer in zip(positions, reply.results):
                results[position] = answer
            for name, value in reply.planner.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    planner[name] = planner.get(name, 0) + value
        if "windows_total" in planner:
            planner["amortization"] = planner["windows_total"] / max(
                1, planner.get("windows_solved", 0)
            )
        planner["groups_routed"] = len({(s, t) for s, t, _d in queries})
        return BatchReply(
            id=request.id,
            results=tuple(results),  # type: ignore[arg-type]
            epoch=min(reply.epoch for _positions, reply in scattered),
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            planner=planner,
        )

    async def _route_topk(self, request: TopKRequest) -> Reply:
        """Scatter a top-k request by shard owner; merge at the coordinator.

        Each owner ranks its own pairs (its local top-k), and the
        coordinator merges with the planner's exact canonical order —
        density descending, then earlier start, shorter interval, and
        first appearance in the request's pair list — so the routed
        answer is byte-identical to a single node ranking every pair.
        """
        started = time.perf_counter()
        fence = self._fence(request)
        if isinstance(fence, ErrorReply):
            return fence
        pairs = list(dict.fromkeys(tuple(pair) for pair in request.pairs))
        scattered = await self._scatter(
            request.id,
            pairs,
            fence,
            lambda sub_id, positions: TopKRequest(
                id=sub_id,
                pairs=tuple(pairs[i] for i in positions),
                delta=request.delta,
                k=request.k,
                timeout=request.timeout,
                min_epoch=fence,
            ),
        )
        if isinstance(scattered, ErrorReply):
            return scattered
        replies = [reply for _positions, reply in scattered]
        first_seen = {pair: position for position, pair in enumerate(pairs)}
        merged = sorted(
            (entry for reply in replies for entry in reply.entries),
            key=lambda entry: (
                -entry.density,
                entry.interval[0],
                entry.interval[1] - entry.interval[0],
                first_seen[(entry.source, entry.sink)],
            ),
        )
        return TopKReply(
            id=request.id,
            entries=tuple(merged[: request.k]),
            epoch=min(reply.epoch for reply in replies),
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            cached=all(reply.cached for reply in replies),
        )

    # ------------------------------------------------------------------
    # Mining: the pipeline's funnel on the mirror, confirmed on the shards
    # ------------------------------------------------------------------
    async def _route_scan(self, request: ScanRequest) -> Reply:
        """One cluster-wide funnel pass over the committed network.

        The coordinator's :class:`~repro.mining.MiningPipeline` over its
        committed mirror shortlists the candidates and settles the
        confirmed entries (flag, persist) exactly as a single service
        does; only the confirmation in between runs elsewhere, as a
        top-k over every candidate scattered across the shard owners.
        """
        started = time.perf_counter()
        if self.mining is None:
            return self._mining_disabled(request.id)
        fence = self._fence(request)
        if isinstance(fence, ErrorReply):
            return fence
        try:
            shortlist = self.mining.shortlist(
                request.delta,
                pairs=request.pairs,
                persist=request.persist,
                top=request.top,
                min_volume=request.min_volume,
            )
        except ReproError as exc:
            return ErrorReply(request.id, ERROR_INVALID, str(exc))
        entries: tuple[BurstEntry, ...] = ()
        if shortlist.pairs:
            confirm = await self._route_topk(
                TopKRequest(
                    id=f"{request.id}.confirm",
                    pairs=tuple(shortlist.pairs),
                    delta=request.delta,
                    k=len(shortlist.pairs),
                    timeout=request.timeout,
                    min_epoch=fence,
                )
            )
            if isinstance(confirm, ErrorReply):
                return replace(confirm, id=request.id)
            entries = confirm.entries
        outcome = self.mining.settle(shortlist, entries)
        return self._scan_reply(request.id, outcome, started)

    # ------------------------------------------------------------------
    # Appends: log first (durability), then fan out (replication)
    # ------------------------------------------------------------------
    async def _replicate_append(self, request: AppendRequest) -> Reply:
        async with self._append_lock:
            # Write-ahead: the append is durable before any replica
            # sees it, so a replica crash mid-fan-out can never lose an
            # *acked* append (the re-join replay picks it up from the
            # log).  If no replica ends up applying any of it, the
            # record is rolled back below, so a client retry of the
            # failed append cannot duplicate its edges.
            rollback_offset = self.log.tail_offset()
            record = append_record(request.edges)
            self.log.append(record)
            self.log.flush()
            payload = request_payload(request)
            live = self._live_ids()
            outcomes = await asyncio.gather(
                *(self._append_to(rid, payload) for rid in live)
            )
            acked: dict[str, int] = {}
            success: AppendReply | None = None
            rejected: ErrorReply | None = None
            transient: ErrorReply | None = None
            errored: list[str] = []
            for replica_id, reply in zip(live, outcomes):
                if reply is None:
                    self._mark_dead(replica_id)
                elif isinstance(reply, AppendReply):
                    acked[replica_id] = reply.epoch
                    success = reply
                elif isinstance(reply, ErrorReply):
                    errored.append(replica_id)
                    if reply.kind in (ERROR_INVALID, ERROR_UNSUPPORTED_VERSION):
                        # Deterministic rejection: the replica applied
                        # the valid prefix and stopped at the bad edge.
                        rejected = reply
                    else:
                        # overloaded / internal — non-deterministic and
                        # per-replica; this replica applied nothing.
                        transient = reply
            if success is not None:
                # Committed: at least one replica applied the append,
                # and the record is durable — the client must see
                # success even if other replicas errored.  A replica
                # that answered a typed error instead of an ack missed
                # a committed append: out of rotation until the log
                # replay catches it up.
                for replica_id in errored:
                    self._mark_dead(replica_id)
                committed = self._apply_committed(record, acked)
                return AppendReply(
                    id=request.id,
                    appended=success.appended,
                    epoch=committed,
                    invalidated=success.invalidated,
                )
            if rejected is not None:
                # Every answering replica rejected deterministically
                # and kept the same valid prefix (epochs bumped per
                # applied edge), so the record stays — replay re-applies
                # exactly that prefix.  Ping for the post-prefix epoch.
                for replica_id in errored:
                    try:
                        acked[replica_id] = await self._probe(replica_id)
                    except ReplicaUnavailableError:
                        self._mark_dead(replica_id)
                if acked:
                    committed = self._apply_committed(record, acked)
                    return replace(rejected, id=request.id, epoch=committed)
            # No replica applied any of it (every fan-out dropped, or
            # every replica shed it).  Take the record back out of the
            # log: an append that was never acked must not replicate
            # later via replay, or the client's retry would double it.
            self.log.truncate_to(rollback_offset)
            self.counters.rollbacks += 1
            if transient is not None:
                return replace(transient, id=request.id)
            return ErrorReply(
                request.id,
                ERROR_OVERLOADED,
                "append applied by no live replica; rolled back — "
                "safe to retry",
                retry_after_ms=200,
            )

    def _apply_committed(self, record: Mapping[str, Any], acked: dict[str, int]) -> int:
        """A logged append record is staying: fold it into the mirror,
        advance the committed epoch, and checkpoint when due.

        The mirror applies the record through the exact replica code
        path (:func:`apply_record`), so its post-apply epoch *is* the
        committed epoch — a replica whose ack diverges from it (should
        be impossible — epochs are a pure function of the applied log
        prefix) is dropped so the log replay restores determinism.
        Runs under the append lock.  Returns the new committed epoch.
        """
        apply_record(self._mirror, record)
        self._records_total += 1
        self._records_since_snapshot += 1
        committed = self._mirror.epoch
        for replica_id, epoch in acked.items():
            if epoch != committed:
                self._mark_dead(replica_id)
            else:
                self._replicas[replica_id].acked_epoch = epoch
        self.committed_epoch = committed
        if (
            self.snapshot_every is not None
            and self._records_since_snapshot >= self.snapshot_every
        ):
            try:
                self._checkpoint_locked()
            except Exception:  # noqa: BLE001 - the append itself committed;
                # a failed checkpoint must not turn it into an error reply.
                self.counters.checkpoint_failures += 1
        return committed

    async def checkpoint(self) -> dict[str, Any]:
        """Snapshot the committed state and compact the covered log prefix.

        Runs under the append lock, so the snapshot is a consistent
        point-in-time view.  Returns ``{"records", "epoch",
        "log_offset", "compacted_records"}`` describing the checkpoint.
        """
        async with self._append_lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> dict[str, Any]:
        """The checkpoint sequence — every step crash-atomic, ordered so
        any interleaving recovers (see :mod:`repro.store.snapshot`):
        durable snapshot payload, durable manifest, then log prefix
        compaction.  A crash between manifest and compaction is finished
        at the next coordinator construction."""
        offset = self.log.tail_offset()
        manifest = self.snapshots.save(
            network_state_record(self._mirror),
            log_offset=offset,
            records=self._records_total,
            epoch=self._mirror.epoch,
        )
        self.counters.snapshots += 1
        dropped = self.log.truncate_prefix(offset)
        self.counters.compactions += 1
        self.counters.records_compacted += dropped
        self._records_since_snapshot = 0
        return {
            "records": manifest.records,
            "epoch": manifest.epoch,
            "log_offset": manifest.log_offset,
            "compacted_records": dropped,
        }

    async def _append_to(
        self, replica_id: str, payload: Mapping[str, Any]
    ) -> Reply | None:
        state = self._replicas[replica_id]
        try:
            return await state.channel.request(payload)
        except ReplicaUnavailableError:
            return None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    async def snapshot(self) -> dict[str, Any]:
        """Cluster-wide metrics: per-replica snapshots + the aggregate."""
        per_replica: dict[str, Any] = {}
        for replica_id in self._live_ids():
            state = self._replicas[replica_id]
            try:
                reply = await state.channel.request(
                    request_payload(MetricsRequest(id="agg"))
                )
            except ReplicaUnavailableError:
                self._mark_dead(replica_id)
                continue
            if isinstance(reply, MetricsReply):
                per_replica[replica_id] = dict(reply.snapshot)
        return {
            "coordinator": {
                "committed_epoch": self.committed_epoch,
                "draining": self._draining,
                "inflight": self._inflight,
                "counters": {
                    "queries": self.counters.queries,
                    "batches": self.counters.batches,
                    "topks": self.counters.topks,
                    "scans": self.counters.scans,
                    "appends": self.counters.appends,
                    "failovers": self.counters.failovers,
                    "restarts": self.counters.restarts,
                    "rejoin_failures": self.counters.rejoin_failures,
                    "rollbacks": self.counters.rollbacks,
                    "stale_retries": self.counters.stale_retries,
                    "shed": self.counters.shed,
                    "snapshots": self.counters.snapshots,
                    "compactions": self.counters.compactions,
                    "records_compacted": self.counters.records_compacted,
                    "checkpoint_failures": self.counters.checkpoint_failures,
                    "requests": dict(sorted(self.counters.requests.items())),
                },
                "recovery": dict(self.recovery),
                "mining": (
                    {"patterns": len(self.patterns)}
                    if self.patterns is not None
                    else None
                ),
                "durability": {
                    "records_total": self._records_total,
                    "records_since_snapshot": self._records_since_snapshot,
                    "log_base_offset": self.log.base_offset,
                    "log_base_records": self.log.base_records,
                    "snapshot_every": self.snapshot_every,
                },
                "replicas": {
                    replica_id: {
                        "live": state.live,
                        "acked_epoch": state.acked_epoch,
                        "inflight": state.inflight,
                        "failures": state.failures,
                        "restarts": state.restarts,
                        "mode": state.handle.mode,
                    }
                    for replica_id, state in sorted(self._replicas.items())
                },
            },
            "replicas": per_replica,
            "aggregate": aggregate_snapshots(per_replica),
        }

    def health_payload(self) -> dict[str, Any]:
        """The ``/healthz`` body: live set, committed epoch, drain state."""
        live = self._live_ids()
        return {
            "ok": bool(live) and not self._draining,
            "committed_epoch": self.committed_epoch,
            "draining": self._draining,
            "replicas": {
                replica_id: state.live
                for replica_id, state in sorted(self._replicas.items())
            },
        }
