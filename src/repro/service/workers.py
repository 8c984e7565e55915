"""Engine execution backends for the query service.

Two interchangeable backends answer the server's reads.  Both inherit
the same three coroutines from :class:`_EngineBackend` and return the
same raw shapes:

* ``await answer(s, t, delta, algorithm)`` — :data:`RawAnswer`, the
  ``(density, interval, flow_value, phase_seconds)`` of one engine solve;
* ``await answer_batch(queries)`` — :data:`RawBatch`, one
  ``(density, interval, flow_value)`` triple per query plus the planner
  report;
* ``await answer_topk(pairs, delta, k)`` — :data:`RawTopK`, the
  planner's :class:`~repro.core.planner.BurstEntry` tuple, densest first.

Each coroutine is one ``self._run(fn, *args)`` call, where ``fn(network,
*args)`` is a module-level solve; the backends differ only in where
``_run`` executes it:

* :class:`ProcessEnginePool` — a :class:`~concurrent.futures.
  ProcessPoolExecutor` with an explicit ``mp_context``.  The workers
  attach to a :class:`~repro.temporal.shared.SharedNetworkStore` (an
  append-only edge log in ``multiprocessing.shared_memory``): the pool
  is built **once**, streaming appends publish only the new edges into
  the log, and each worker replays the suffix at its next task — no
  per-epoch pool teardown, no re-pickling the whole network.  When
  shared memory is unavailable the pool falls back to the classic
  epoch-aware mode: the network travels through
  ``initializer``/``initargs`` and the next query after an append
  transparently rebuilds the pool.  Either way a
  :class:`BrokenProcessPool` (crashed/OOM-killed worker) is survived by
  rebuilding the pool once and resubmitting.

* :class:`InlineEngine` — a small thread pool running the solver on the
  *live* network object.  This is the default for modest deployments and
  for the differential-oracle backend: no pickling, no worker processes,
  and the server's reader/writer lock already serialises appends against
  in-flight queries.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.core.engine import find_bursting_flow
from repro.core.planner import BurstEntry, answer_planned, top_k_bursts
from repro.core.query import BurstingFlowQuery
from repro.temporal.edge import NodeId, TemporalEdge, Timestamp
from repro.temporal.network import TemporalFlowNetwork
from repro.temporal.shared import SharedNetworkReader, SharedNetworkStore

#: A raw engine answer: (density, interval, flow_value, phase_seconds).
#: The trailing phase dict ({"transform": .., "maxflow": .., "prune": ..})
#: feeds the service's per-algorithm phase metrics; consumers that only
#: need the answer unpack ``answer[:3]``.
RawAnswer = tuple[
    float, "tuple[Timestamp, Timestamp] | None", float, dict[str, float]
]

#: A raw batch answer: per-query (density, interval, flow_value) triples in
#: input order, plus the planner report dict.
RawBatch = tuple[
    "list[tuple[float, tuple[Timestamp, Timestamp] | None, float]]",
    dict[str, object],
]

#: A raw top-k answer: the planner's :class:`~repro.core.planner.BurstEntry`
#: per surviving burst, densest first.
RawTopK = tuple[BurstEntry, ...]

#: Worker threads of an :class:`InlineEngine`.
INLINE_THREADS = 2


def _solve_query(
    network: TemporalFlowNetwork,
    source: NodeId,
    sink: NodeId,
    delta: int,
    algorithm: str,
) -> RawAnswer:
    result = find_bursting_flow(
        network,
        BurstingFlowQuery(source, sink, delta),
        algorithm=algorithm,
    )
    return (
        result.density,
        result.interval,
        result.flow_value,
        result.stats.phase_seconds(),
    )


def _solve_batch(
    network: TemporalFlowNetwork,
    queries: tuple[tuple[NodeId, NodeId, int], ...],
) -> RawBatch:
    """Answer a batch through the planner, in the calling worker.

    Concurrency across requests comes from the engine backend: the
    process backend runs this inside a pool worker, the inline backend
    on its thread pool.
    """
    results, report = answer_planned(
        network, [BurstingFlowQuery(s, t, d) for (s, t, d) in queries]
    )
    return (
        [(r.density, r.interval, r.flow_value) for r in results],
        report.as_dict(),
    )


def _solve_topk(
    network: TemporalFlowNetwork,
    pairs: tuple[tuple[NodeId, NodeId], ...],
    delta: int,
    k: int,
) -> RawTopK:
    return tuple(top_k_bursts(network, pairs, delta, k=k))


# Per-worker state, installed by _init_service_worker (classic mode) or
# _init_shared_worker (shared-memory mode) in each pool process
# (initargs travel pickled for spawn/forkserver).
_WORKER_NETWORK: TemporalFlowNetwork | None = None
_WORKER_READER: SharedNetworkReader | None = None


def _init_service_worker(network: TemporalFlowNetwork) -> None:
    """Pool initializer: install the service's network in this worker."""
    global _WORKER_NETWORK
    _WORKER_NETWORK = network
    # Build the lazy timestamp indexes once per worker instead of on the
    # first query it happens to receive.
    _ = network.timestamps


def _init_shared_worker(store_name: str) -> None:
    """Pool initializer: attach to the service's shared edge log.

    Only the short store *name* travels through initargs; the edge
    records themselves are read straight out of shared memory.
    """
    global _WORKER_NETWORK, _WORKER_READER
    _WORKER_READER = SharedNetworkReader(store_name)
    _WORKER_NETWORK = _WORKER_READER.network
    if _WORKER_NETWORK.num_edges:
        _ = _WORKER_NETWORK.timestamps


def _catch_up() -> None:
    """Replay any log suffix published since this worker's last task.

    A no-op in classic mode (no reader) and when nothing was appended
    (two header reads).  Runs at task start, so by the server's
    reader/writer lock the owner is never publishing concurrently.
    """
    if _WORKER_READER is not None and _WORKER_READER.catch_up():
        # Appends invalidated the lazy timestamp indexes; rebuild them
        # here rather than mid-solve.
        _ = _WORKER_READER.network.timestamps


def _on_worker(fn: Callable[..., Any], *args: object) -> Any:
    """Worker task: catch up on the log, then ``fn(network, *args)``."""
    assert _WORKER_NETWORK is not None, "worker started outside the service"
    _catch_up()
    return fn(_WORKER_NETWORK, *args)


class _EngineBackend:
    """The three read coroutines, written once over :meth:`_run`.

    A backend supplies ``_run(fn, *args)``: run ``fn(network, *args)``
    somewhere off the event loop and return its result.
    """

    async def _run(self, fn: Callable[..., Any], *args: object) -> Any:
        raise NotImplementedError

    async def answer(
        self,
        source: NodeId,
        sink: NodeId,
        delta: int,
        algorithm: str,
    ) -> RawAnswer:
        """Solve one query with ``algorithm``."""
        return await self._run(_solve_query, source, sink, delta, algorithm)

    async def answer_batch(
        self, queries: tuple[tuple[NodeId, NodeId, int], ...]
    ) -> RawBatch:
        """Solve one whole batch through the planner (skeletons and the
        window memo are shared within the one solve)."""
        return await self._run(_solve_batch, tuple(queries))

    async def answer_topk(
        self,
        pairs: tuple[tuple[NodeId, NodeId], ...],
        delta: int,
        k: int,
    ) -> RawTopK:
        """Rank the top-k densest bursts over ``pairs``."""
        return await self._run(_solve_topk, tuple(pairs), delta, k)


class ProcessEnginePool(_EngineBackend):
    """Process-pool engine backend with crash recovery.

    In shared-memory mode the network reaches workers as a
    :class:`~repro.temporal.shared.SharedNetworkStore` edge log: the pool
    is built once, :meth:`mark_stale` *publishes* appended edges instead
    of forcing a rebuild, and workers replay the log suffix at their next
    task.  When shared memory cannot be created the pool degrades to the
    classic epoch-aware mode that re-ships the pickled network by
    rebuilding the pool whenever the epoch moves.

    Args:
        network: the live network (the server guarantees the epoch is
            stable while answers are in flight via its reader/writer
            lock).
        processes: worker process count; ``0`` means ``os.cpu_count()``.
        mp_context: multiprocessing start method (``"fork"``,
            ``"forkserver"``, ``"spawn"``) or ``None`` for the platform
            default.
        on_restart: callback invoked whenever a broken pool is rebuilt.
    """

    def __init__(
        self,
        network: TemporalFlowNetwork,
        *,
        processes: int = 2,
        mp_context: str | None = None,
        on_restart: Callable[[], None] | None = None,
    ) -> None:
        if processes == 0:
            processes = os.cpu_count() or 1
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self._network = network
        self._processes = processes
        self._context = multiprocessing.get_context(mp_context)
        self._on_restart = on_restart
        self._pool: ProcessPoolExecutor | None = None
        self._pool_epoch = -1
        self._rebuild_lock = asyncio.Lock()
        self.restarts = 0
        self._store: SharedNetworkStore | None
        try:
            self._store = SharedNetworkStore(network)
        except (OSError, ValueError):  # no /dev/shm: classic mode
            self._store = None

    # ------------------------------------------------------------------
    @property
    def shared(self) -> bool:
        """Whether workers attach to the shared-memory edge log."""
        return self._store is not None

    def _build_pool(self) -> ProcessPoolExecutor:
        if self._store is not None:
            initializer: Callable[..., None] = _init_shared_worker
            initargs: tuple = (self._store.name,)
        else:
            initializer = _init_service_worker
            initargs = (self._network,)
        return ProcessPoolExecutor(
            max_workers=self._processes,
            mp_context=self._context,
            initializer=initializer,
            initargs=initargs,
        )

    async def _ensure_fresh(self) -> ProcessPoolExecutor:
        """The current pool, rebuilt if the network epoch moved.

        In shared mode :meth:`mark_stale` keeps ``_pool_epoch`` current
        on publish, so this almost never rebuilds — only an unpublished
        mutation (epoch moved behind the store's back) forces a full
        re-snapshot of the log plus a pool rebuild.
        """
        if self._pool is not None and self._pool_epoch == self._network.epoch:
            return self._pool
        async with self._rebuild_lock:
            if self._pool is None or self._pool_epoch != self._network.epoch:
                if (
                    self._store is not None
                    and self._store.epoch != self._network.epoch
                ):
                    # The network changed in a way nobody published
                    # (mark_stale(None) or a direct mutation): the log
                    # no longer describes it, so re-snapshot from
                    # scratch under a fresh store name.
                    self._store.close()
                    self._store = SharedNetworkStore(self._network)
                old = self._pool
                self._pool = self._build_pool()
                self._pool_epoch = self._network.epoch
                if old is not None:
                    old.shutdown(wait=False, cancel_futures=True)
        return self._pool

    async def _run(self, fn: Callable[..., Any], *args: object) -> Any:
        """Run ``fn(network, *args)`` on a worker; survives one pool crash."""
        pool = await self._ensure_fresh()
        try:
            return await asyncio.wrap_future(pool.submit(_on_worker, fn, *args))
        except BrokenProcessPool:
            # A worker died mid-solve.  Rebuild once and resubmit; a
            # second crash on the same task is systemic and propagates.
            async with self._rebuild_lock:
                if self._pool is pool:
                    self._pool = self._build_pool()
                    self._pool_epoch = self._network.epoch
                    pool.shutdown(wait=False, cancel_futures=True)
                    self.restarts += 1
                    if self._on_restart is not None:
                        self._on_restart()
                fresh = self._pool
            return await asyncio.wrap_future(fresh.submit(_on_worker, fn, *args))

    def mark_stale(self, edges: "Sequence[TemporalEdge] | None" = None) -> None:
        """Tell the pool the network changed (appends call this).

        With ``edges`` (the appended records, in commit order) in shared
        mode, the edges are published into the shared log and the pool
        keeps running — workers catch up at their next task.  Without
        ``edges`` (or in classic mode) the next answer rebuilds the
        pool.  Must run while the network is quiescent (the server's
        writer lock).
        """
        if self._store is not None and edges is not None:
            self._store.publish(edges, epoch=self._network.epoch)
            self._pool_epoch = self._network.epoch
            return
        self._pool_epoch = -1

    def close(self) -> None:
        """Shut the pool down and unlink the shared segments."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._store is not None:
            self._store.close()
            self._store = None


class InlineEngine(_EngineBackend):
    """Thread-pool engine backend solving on the live network.

    The server's reader/writer lock guarantees no append mutates the
    network while answers are in flight, and forces the lazy timestamp
    indexes after each append — so concurrent solves only ever *read*.
    """

    def __init__(self, network: TemporalFlowNetwork) -> None:
        self._network = network
        self._pool = ThreadPoolExecutor(
            max_workers=INLINE_THREADS, thread_name_prefix="repro-service"
        )

    async def _run(self, fn: Callable[..., Any], *args: object) -> Any:
        """Run ``fn(network, *args)`` on a worker thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn, self._network, *args)

    def mark_stale(self, edges: "Sequence[TemporalEdge] | None" = None) -> None:
        """No-op: inline solves always see the live network."""

    def close(self) -> None:
        """Shut the thread pool down."""
        self._pool.shutdown(wait=False, cancel_futures=True)
